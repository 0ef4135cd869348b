//! Error type for the EarSonar pipeline.

use earsonar_dsp::DspError;
use earsonar_ml::MlError;
use earsonar_signal::source::SignalError;
use std::error::Error;
use std::fmt;

/// Error returned by the EarSonar pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EarSonarError {
    /// A DSP kernel rejected its input.
    Dsp(DspError),
    /// A learning-stage operation failed.
    Ml(MlError),
    /// A [`earsonar_signal::source::SignalSource`] failed to capture.
    Signal(SignalError),
    /// No usable eardrum echo was found in the recording.
    NoEchoDetected,
    /// The recording is too short or malformed for the configured pipeline.
    BadRecording {
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A configuration value was out of its valid domain.
    BadConfig {
        /// Which parameter.
        name: &'static str,
        /// The violated constraint.
        constraint: &'static str,
    },
    /// The detector was asked to predict before being fitted.
    NotFitted,
    /// A backend name was not found in the registry
    /// (see [`crate::backend::registry`]).
    UnknownBackend {
        /// The name that failed to resolve.
        name: String,
    },
    /// A model file was saved by one backend but opened as another.
    BackendMismatch {
        /// The backend the caller asked for.
        expected: String,
        /// The backend recorded in the model file.
        found: String,
    },
    /// A model file's classifier expects feature vectors of a different
    /// width than its backend's feature extractor produces.
    FeatureWidthMismatch {
        /// Input width of the classifier (its scaler's length).
        classifier: usize,
        /// Width of the extractor's feature vectors.
        extractor: usize,
    },
}

impl fmt::Display for EarSonarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EarSonarError::Dsp(e) => write!(f, "dsp error: {e}"),
            EarSonarError::Ml(e) => write!(f, "learning error: {e}"),
            EarSonarError::Signal(e) => write!(f, "signal source error: {e}"),
            EarSonarError::NoEchoDetected => write!(f, "no eardrum echo detected in recording"),
            EarSonarError::BadRecording { reason } => write!(f, "bad recording: {reason}"),
            EarSonarError::BadConfig { name, constraint } => {
                write!(f, "bad config `{name}`: {constraint}")
            }
            EarSonarError::NotFitted => write!(f, "detector has not been fitted"),
            EarSonarError::UnknownBackend { name } => {
                write!(f, "unknown backend `{name}`")
            }
            EarSonarError::BackendMismatch { expected, found } => {
                write!(
                    f,
                    "backend mismatch: requested `{expected}` but the model was saved by `{found}`"
                )
            }
            EarSonarError::FeatureWidthMismatch {
                classifier,
                extractor,
            } => write!(
                f,
                "model classifier takes {classifier} features, its extractor makes {extractor}"
            ),
        }
    }
}

impl Error for EarSonarError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EarSonarError::Dsp(e) => Some(e),
            EarSonarError::Ml(e) => Some(e),
            EarSonarError::Signal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DspError> for EarSonarError {
    fn from(e: DspError) -> Self {
        EarSonarError::Dsp(e)
    }
}

impl From<MlError> for EarSonarError {
    fn from(e: MlError) -> Self {
        EarSonarError::Ml(e)
    }
}

impl From<SignalError> for EarSonarError {
    fn from(e: SignalError) -> Self {
        EarSonarError::Signal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e: EarSonarError = DspError::EmptyInput.into();
        assert!(e.to_string().contains("dsp"));
        let e: EarSonarError = MlError::EmptyDataset.into();
        assert!(e.to_string().contains("learning"));
        assert!(EarSonarError::NotFitted.to_string().contains("fitted"));
    }

    #[test]
    fn source_chains() {
        let e: EarSonarError = DspError::EmptyInput.into();
        assert!(e.source().is_some());
        assert!(EarSonarError::NoEchoDetected.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EarSonarError>();
    }
}
