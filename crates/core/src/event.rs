//! Adaptive-energy event detection (paper §IV-B-2).
//!
//! Each chirp and its echoes form a burst of energy against the quiet
//! inter-chirp gaps. The paper tracks exponentially weighted estimates of
//! the windowed signal power mean `μ(i)` and deviation `σ(i)` (Eq. 6–7);
//! an event starts when the instantaneous power exceeds `μ + σ` and ends
//! when it falls below the global average power `μ̄`.

use crate::config::EarSonarConfig;
use crate::error::EarSonarError;
use std::ops::ControlFlow;

/// Sliding-window length `W` of the power trackers (samples).
pub const EVENT_WINDOW: usize = 24;

/// A detected event: a half-open sample interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSpan {
    /// First sample of the event.
    pub start: usize,
    /// One past the last sample.
    pub end: usize,
}

impl EventSpan {
    /// Event length in samples.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Returns `true` for a degenerate span.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Runs the paper's adaptive-energy event detector over a preprocessed
/// signal with the power floor `μ̄` (Eq. 6's global average power)
/// supplied by the caller, returning the detected event spans. Events open
/// above `μ + σ` *and* above the floor, and close when the power falls
/// back below the floor. The pipeline tracks the floor across a session's
/// chirp windows, so one window's own mean power does not set it.
///
/// # Errors
///
/// Returns [`EarSonarError::BadRecording`] if the signal is shorter than
/// one [`EVENT_WINDOW`]. The configuration is not read: the window is
/// fixed at every sample rate.
pub fn detect_events_with_floor(
    signal: &[f64],
    global_mean: f64,
    _config: &EarSonarConfig,
) -> Result<Vec<EventSpan>, EarSonarError> {
    let mut events = Vec::new();
    // Events separated by less than half a window merge (echo ripple).
    scan(signal, global_mean, |e| {
        push_merged(&mut events, e, EVENT_WINDOW / 2);
        ControlFlow::Continue(())
    })?;
    Ok(events)
}

/// Whether [`detect_events_with_floor`] finds any event: the scan stops
/// at the first span, since whatever follows cannot empty the list.
///
/// # Errors
///
/// Same conditions as [`detect_events_with_floor`].
pub(crate) fn has_event(signal: &[f64], global_mean: f64) -> Result<bool, EarSonarError> {
    let mut found = false;
    scan(signal, global_mean, |_| {
        found = true;
        ControlFlow::Break(())
    })?;
    Ok(found)
}

/// The detector itself: passes each span, unmerged and in order, to
/// `on_span`, and stops early when it breaks.
///
/// Kept out of line: inlined into [`detect_events_with_floor`], whose
/// `Vec` growth call sits in the loop, LLVM kept the trackers in stack
/// slots instead of registers, and a 240-sample window took ~40% longer.
#[inline(never)]
fn scan(
    signal: &[f64],
    global_mean: f64,
    mut on_span: impl FnMut(EventSpan) -> ControlFlow<()>,
) -> Result<(), EarSonarError> {
    let w = EVENT_WINDOW;
    if signal.len() < w {
        return Err(EarSonarError::BadRecording {
            reason: "signal shorter than the event-detection window",
        });
    }
    let n = signal.len();
    // Instantaneous power x², squared where it is read.
    let power = |i: usize| signal[i] * signal[i];

    // Eq. 7: windowed cumulative power A(i) and windowed deviation B(i).
    // Eq. 6: exponential updates of mu(i) and sigma(i) with factor 1/W.
    let alpha = 1.0 / w as f64;
    // Prime the trackers on the first window.
    let mut window_sum: f64 = signal[..w].iter().map(|&x| x * x).sum();
    let mut mu = window_sum / w as f64;
    let mut sigma = 0.0f64;

    let mut open: Option<usize> = None;
    for i in 0..n {
        // Slide the window [i, i+W).
        if i > 0 {
            let leaving = power(i - 1);
            let entering = if i + w - 1 < n { power(i + w - 1) } else { 0.0 };
            window_sum += entering - leaving;
        }
        let a_i = window_sum / w as f64;
        let p_i = power(i);
        let dev = (p_i - a_i).abs();
        mu = alpha * a_i + (1.0 - alpha) * mu;
        sigma = alpha * dev + (1.0 - alpha) * sigma;

        match open {
            None => {
                if p_i > mu + sigma && p_i > global_mean {
                    open = Some(i);
                }
            }
            Some(start) => {
                if p_i < global_mean {
                    if on_span(EventSpan { start, end: i }).is_break() {
                        return Ok(());
                    }
                    open = None;
                }
            }
        }
    }
    if let Some(start) = open {
        let _ = on_span(EventSpan { start, end: n });
    }
    Ok(())
}

/// Appends `e` to the chronological `events`, extending the last span
/// instead when `e` starts within `gap` samples of its end.
fn push_merged(events: &mut Vec<EventSpan>, e: EventSpan, gap: usize) {
    match events.last_mut() {
        Some(prev) if e.start <= prev.end + gap => prev.end = prev.end.max(e.end),
        _ => events.push(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> EarSonarConfig {
        EarSonarConfig::default()
    }

    /// Detects events with the floor set to the signal's mean power.
    fn detect(x: &[f64]) -> Result<Vec<EventSpan>, EarSonarError> {
        let floor = x.iter().map(|&v| v * v).sum::<f64>() / x.len().max(1) as f64;
        detect_events_with_floor(x, floor, &config())
    }

    /// A synthetic "chirp train": bursts of a strong 18 kHz tone every
    /// `hop` samples, silence elsewhere.
    fn synthetic_train(n_bursts: usize, hop: usize, burst_len: usize) -> Vec<f64> {
        let mut x = vec![0.0; n_bursts * hop];
        for b in 0..n_bursts {
            for i in 0..burst_len {
                let t = (b * hop + i) as f64;
                x[b * hop + i] = (2.0 * std::f64::consts::PI * 18_000.0 * t / 48_000.0).sin();
            }
        }
        x
    }

    #[test]
    fn detects_each_burst() {
        let x = synthetic_train(6, 240, 40);
        let events = detect(&x).unwrap();
        assert_eq!(events.len(), 6, "{events:?}");
        for (b, e) in events.iter().enumerate() {
            let expected = b * 240;
            assert!(
                e.start >= expected && e.start < expected + 20,
                "burst {b} start {e:?}"
            );
            assert!(e.end <= expected + 80, "burst {b} end {e:?}");
        }
    }

    #[test]
    fn silence_has_no_events() {
        let x = vec![0.0; 2048];
        let events = detect(&x).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn short_signal_is_rejected() {
        assert!(matches!(
            detect(&[1.0; 4]),
            Err(EarSonarError::BadRecording { .. })
        ));
    }

    #[test]
    fn weak_noise_does_not_trigger() {
        // Noise floor well below burst energy.
        let mut x = synthetic_train(3, 240, 40);
        for (i, v) in x.iter_mut().enumerate() {
            *v += 0.01 * ((i as f64 * 1.7).sin());
        }
        let events = detect(&x).unwrap();
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn missing_chirps_leave_gaps() {
        // Only bursts 0 and 2 present.
        let mut x = vec![0.0; 4 * 240];
        for b in [0usize, 2] {
            for i in 0..40 {
                let t = (b * 240 + i) as f64;
                x[b * 240 + i] = (2.0 * std::f64::consts::PI * 18_000.0 * t / 48_000.0).sin();
            }
        }
        let events = detect(&x).unwrap();
        let windows: Vec<usize> = events.iter().map(|e| e.start / 240).collect();
        assert_eq!(windows, [0, 2], "{events:?}");
    }

    #[test]
    fn has_event_agrees_with_the_full_scan() {
        // A constant tail stays above the floor to the end, so its span
        // closes only when the scan runs out of samples.
        let mut open_at_end = vec![0.0; 200];
        open_at_end.extend([1.0; 30]);
        let signals = [
            synthetic_train(6, 240, 40),
            vec![0.0; 2048],
            open_at_end,
            vec![1.0; 4],
        ];
        for x in &signals {
            for floor in [0.0, 1e-3, 0.1, 0.49, 2.0] {
                let full = detect_events_with_floor(x, floor, &config());
                assert_eq!(
                    has_event(x, floor).ok(),
                    full.ok().map(|e| !e.is_empty()),
                    "len {} floor {floor}",
                    x.len()
                );
            }
        }
    }

    #[test]
    fn event_span_helpers() {
        let e = EventSpan { start: 10, end: 25 };
        assert_eq!(e.len(), 15);
        assert!(!e.is_empty());
        assert!(EventSpan { start: 5, end: 5 }.is_empty());
    }

    #[test]
    fn push_merged_coalesces_close_events() {
        let mut merged = Vec::new();
        for e in [
            EventSpan { start: 0, end: 10 },
            EventSpan { start: 12, end: 20 },
            EventSpan {
                start: 100,
                end: 110,
            },
        ] {
            push_merged(&mut merged, e, 5);
        }
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], EventSpan { start: 0, end: 20 });
    }
}
