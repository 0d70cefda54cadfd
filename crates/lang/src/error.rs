//! Error type shared by the parser, semantic analysis and the executor.

/// Errors produced anywhere in the language pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum LangError {
    /// Lexical or syntactic error.
    Parse {
        /// 1-based source line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Semantic error found during analysis.
    Semantic(String),
    /// Error raised while executing the lowered program.
    Runtime(String),
    /// An execution phase failed (injected fault, kernel panic or straggler)
    /// and the configured [`crate::RecoveryPolicy`] did not — or was
    /// not allowed to — recover it. Carries the typed
    /// `(epoch, rank, lane, cause)` diagnosis.
    Phase(chaos_dmsim::PhaseError),
}

impl LangError {
    /// Construct a parse error.
    pub fn parse(line: usize, message: impl Into<String>) -> Self {
        LangError::Parse {
            line,
            message: message.into(),
        }
    }

    /// Construct a semantic error.
    pub fn semantic(message: impl Into<String>) -> Self {
        LangError::Semantic(message.into())
    }

    /// Construct a runtime error.
    pub fn runtime(message: impl Into<String>) -> Self {
        LangError::Runtime(message.into())
    }

    /// Wrap an unrecovered phase failure.
    pub fn phase(err: chaos_dmsim::PhaseError) -> Self {
        LangError::Phase(err)
    }
}

impl std::fmt::Display for LangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LangError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            LangError::Semantic(m) => write!(f, "semantic error: {m}"),
            LangError::Runtime(m) => write!(f, "runtime error: {m}"),
            LangError::Phase(e) => write!(f, "unrecovered phase failure: {e}"),
        }
    }
}

impl std::error::Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        assert!(LangError::parse(3, "unexpected token")
            .to_string()
            .contains("line 3"));
        assert!(LangError::semantic("x undeclared")
            .to_string()
            .contains("semantic"));
        assert!(LangError::runtime("boom").to_string().contains("runtime"));
    }
}
