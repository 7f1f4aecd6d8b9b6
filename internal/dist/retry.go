package dist

import (
	"context"
	"errors"
	"time"
)

// RetryPolicy bounds the coordinator's per-call behaviour under faults:
// how long one attempt may run, how many attempts a call gets, and how
// the backoff between attempts grows. The zero value means "defaults"
// (see normalized); a policy with MaxAttempts == 1 and CallTimeout == 0
// reproduces the pre-fault-tolerance coordinator exactly.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call (first attempt
	// included). Values < 1 mean the default of 3.
	MaxAttempts int
	// CallTimeout is the per-attempt deadline; 0 disables it and attempts
	// run until the parent context is done. An attempt that exceeds it
	// fails with an error wrapping ErrCallTimeout (retryable). The
	// deadline travels with the request, so the worker stops the
	// abandoned scan at its next poll and the retry, which fills a fresh
	// reply, does not queue behind it.
	CallTimeout time.Duration
	// BaseBackoff is the backoff step before the second attempt; it
	// doubles per retry up to MaxBackoff. Values <= 0 mean 5ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Values <= 0 mean 250ms.
	MaxBackoff time.Duration
	// Seed feeds the deterministic jitter so fault schedules replay
	// exactly; 0 means 1.
	Seed int64
}

// Default retry knobs, exported so CLIs and docs quote one source.
const (
	DefaultMaxAttempts = 3
	DefaultBaseBackoff = 5 * time.Millisecond
	DefaultMaxBackoff  = 250 * time.Millisecond
)

// normalized fills the zero-value defaults in.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = DefaultBaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultMaxBackoff
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Backoff returns the pause before retry number retry (1-based: the pause
// after the first failed attempt is retry 1) of a call to worker w: the
// capped exponential step with deterministic jitter in [step/2, step),
// derived from (Seed, w, retry) so a replayed schedule backs off
// identically while distinct workers still de-synchronise.
func (p RetryPolicy) Backoff(w, retry int) time.Duration {
	p = p.normalized()
	step := p.BaseBackoff
	for i := 1; i < retry && step < p.MaxBackoff; i++ {
		step *= 2
	}
	if step > p.MaxBackoff {
		step = p.MaxBackoff
	}
	half := step / 2
	if half <= 0 {
		return step
	}
	jitter := time.Duration(mix64(uint64(p.Seed), uint64(w), uint64(retry)) % uint64(half))
	return half + jitter
}

// Retryable reports whether err is worth another attempt: only the
// transport-level sentinels qualify. Application errors (ErrNoShard,
// ErrBadMethod, malformed replies) are deterministic and retrying them
// would just repeat the failure.
func Retryable(err error) bool {
	return errors.Is(err, ErrWorkerUnavailable) || errors.Is(err, ErrCallTimeout)
}

// mix64 hashes its words through splitmix64 — the repo's stateless
// deterministic mixer (synth uses the same construction), here the jitter
// and fault-schedule source. No math/rand state means no cross-test
// coupling and exact replays.
func mix64(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h ^= w + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	return h
}

// sleepContext pauses for d unless ctx finishes first, in which case it
// returns ctx.Err() — the cancellation-aware leg of the backoff loop.
func sleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
