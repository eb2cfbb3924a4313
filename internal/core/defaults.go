package core

import "time"

// Defaults the micro-protocols fall back to when a parameter is unset (zero
// or negative). config.PlanTransition normalises parameters with the same
// values, so a transition plan cannot disagree with the running protocol.
const (
	DefaultRetransTimeout = 20 * time.Millisecond // ReliableCommunication.RetransTimeout
	DefaultTimeBound      = time.Second           // BoundedTermination.TimeBound
	DefaultProbeMisses    = 3                     // TerminateOrphan.ProbeMisses
	DefaultCompactEvery   = 16                    // AtomicExecution.CompactEvery
	DefaultFlushSize      = 16                    // Options.FlushSize: messages per batch frame
)

// OrDefault returns v, or def when v is unset (zero or negative).
func OrDefault[T int | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}
