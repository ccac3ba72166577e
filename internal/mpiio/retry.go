package mpiio

import (
	"iophases/internal/des"
	"iophases/internal/fsim"
	"iophases/internal/units"
)

// Transient-error retry policy (MPI-IO is where real stacks hide storage
// hiccups from the application: ROMIO's ADIO drivers retry EINTR/EAGAIN).
// Backoff is capped exponential, charged as virtual time — a run with
// injected transient errors finishes later and never surfaces a panic.
// It may also move more data: an extent is retried whole, so on a file
// striped over several targets the chunks that did not fail complete,
// and are then moved again by the retry.
const (
	retryBackoffBase = 2 * units.Millisecond
	retryBackoffCap  = 256 * units.Millisecond
)

// fsAccess issues one filesystem extent operation with the retry policy.
// The healthy path (no injector attached to the engine) is a direct call,
// identical to the seed; the fault path loops until the operation
// succeeds, sleeping the backoff in virtual time and reporting each retry
// to the injector's counters. Termination is guaranteed because every
// transient-error effect carries a finite OpCount budget (enforced by
// Schedule.Validate), so the injector eventually runs dry.
func (s *System) fsAccess(p *des.Proc, h *fsim.File, node string, write bool, off, size int64) {
	if s.flt == nil {
		if write {
			h.Write(p, node, off, size)
		} else {
			h.Read(p, node, off, size)
		}
		return
	}
	backoff := retryBackoffBase
	for {
		var err error
		if write {
			err = h.Write(p, node, off, size)
		} else {
			err = h.Read(p, node, off, size)
		}
		if err == nil {
			return
		}
		s.flt.NoteRetry(backoff)
		p.Sleep(backoff)
		if backoff < retryBackoffCap {
			backoff *= 2
		}
	}
}
