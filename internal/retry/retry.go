// Package retry is the pipeline's generic transient-failure policy:
// jittered exponential backoff with per-stage retry budgets,
// Retry-After honoring, and context-aware waits. It replaces the
// bespoke throttle loops that grew inside individual fetchers, so every
// stage degrades the same way under the same pressure — and so chaos
// tests can reason about retry behaviour in one place.
//
// Determinism: the jitter stream is seeded (Policy.Seed), so a fixed
// seed yields a fixed delay schedule. Fault-injection runs rely on this
// to stay byte-reproducible.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Policy tunes one retryable operation.
type Policy struct {
	// MaxAttempts is the total number of tries, including the first
	// (default 3).
	MaxAttempts int
	// BaseDelay is the wait before the first retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 2s).
	MaxDelay time.Duration
	// Multiplier is the backoff growth factor (default 2).
	Multiplier float64
	// Jitter randomizes each delay symmetrically by this fraction
	// (0.2 → ±10%); 0 disables jitter.
	Jitter float64
	// Seed drives the jitter stream; equal seeds give equal schedules.
	Seed int64
	// RetryAfterCap clamps server-specified Retry-After hints so a
	// hostile or sluggish server cannot stall a stage (default MaxDelay).
	RetryAfterCap time.Duration
	// Budget, when set, is a shared pool of retries for a whole stage:
	// every retry (not first attempts) consumes one token, and an empty
	// budget stops retrying with ErrBudgetExhausted.
	Budget *Budget
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.RetryAfterCap <= 0 {
		p.RetryAfterCap = p.MaxDelay
	}
	return p
}

// Sentinel errors Do wraps into its failures.
var (
	// ErrExhausted marks a Do that used every attempt without success.
	ErrExhausted = errors.New("retry: attempts exhausted")
	// ErrBudgetExhausted marks a Do stopped by an empty shared budget.
	ErrBudgetExhausted = errors.New("retry: budget exhausted")
)

// PermanentError wraps an error that must not be retried.
type PermanentError struct{ Err error }

func (e *PermanentError) Error() string { return e.Err.Error() }
func (e *PermanentError) Unwrap() error { return e.Err }

// Permanent marks err as non-retryable: Do returns the underlying
// error immediately. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &PermanentError{Err: err}
}

// afterError carries a server-requested backoff (Retry-After).
type afterError struct {
	err   error
	after time.Duration
}

func (e *afterError) Error() string { return e.err.Error() }
func (e *afterError) Unwrap() error { return e.err }

// After marks err as retryable with a server-specified wait before the
// next attempt (e.g. a parsed Retry-After header). Do honours the hint,
// clamped to Policy.RetryAfterCap.
func After(err error, d time.Duration) error {
	if err == nil {
		return nil
	}
	return &afterError{err: err, after: d}
}

// RetryAfterHint extracts the wait carried by After, if any.
func RetryAfterHint(err error) (time.Duration, bool) {
	var ae *afterError
	if errors.As(err, &ae) {
		return ae.after, true
	}
	return 0, false
}

// ParseRetryAfter parses an HTTP Retry-After header value: either
// delta-seconds or an HTTP-date. The zero duration with ok=false means
// the value was absent or malformed.
func ParseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// Budget is a shared, concurrency-safe pool of retries for one pipeline
// stage. A nil *Budget is unlimited.
type Budget struct {
	mu   sync.Mutex
	left int
}

// NewBudget returns a budget allowing n retries in total.
func NewBudget(n int) *Budget { return &Budget{left: n} }

// Take consumes one retry token, reporting false when the budget is
// spent. A nil budget always grants.
func (b *Budget) Take() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left <= 0 {
		return false
	}
	b.left--
	return true
}

// Remaining reports the unspent retry tokens.
func (b *Budget) Remaining() int {
	if b == nil {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.left
}

// Do runs fn until it succeeds, returns a permanent error, exhausts the
// policy, or ctx is cancelled. Context errors — from ctx itself or
// surfaced by fn — are returned verbatim and never retried.
func Do(ctx context.Context, p Policy, fn func(context.Context) error) error {
	return do(ctx, p, fn, sleep)
}

// do is Do with the wait between attempts supplied by the caller, so
// tests can observe the backoff schedule without sleeping through it.
func do(ctx context.Context, p Policy, fn func(context.Context) error, wait func(context.Context, time.Duration) error) error {
	p = p.withDefaults()
	sched := newSchedule(p)
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := fn(ctx)
		if err == nil {
			return nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		var perm *PermanentError
		if errors.As(err, &perm) {
			return perm.Err
		}
		if attempt >= p.MaxAttempts {
			return fmt.Errorf("%w after %d attempts: %w", ErrExhausted, attempt, err)
		}
		if !p.Budget.Take() {
			return fmt.Errorf("%w after %d attempts: %w", ErrBudgetExhausted, attempt, err)
		}
		d := sched.next()
		if hint, ok := RetryAfterHint(err); ok {
			if hint > p.RetryAfterCap {
				hint = p.RetryAfterCap
			}
			if hint > d {
				d = hint
			}
		}
		if err := wait(ctx, d); err != nil {
			return err
		}
	}
}

// PreviewDelays returns the backoff schedule Do would use for n retries
// when no Retry-After hints arrive — the deterministic-jitter contract,
// testable without sleeping.
func PreviewDelays(p Policy, n int) []time.Duration {
	sched := newSchedule(p.withDefaults())
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, sched.next())
	}
	return out
}

// schedule is the backoff sequence of one Do: exponential growth from
// BaseDelay capped at MaxDelay, each delay jittered from a stream seeded
// by Policy.Seed. The stream is built on the first jittered draw, so an
// operation that never backs off never pays for seeding it; the draws
// and so the delays are the same as with an eagerly built stream.
type schedule struct {
	p     Policy
	delay time.Duration
	rng   *rand.Rand
}

func newSchedule(p Policy) schedule {
	return schedule{p: p, delay: p.BaseDelay}
}

// next returns the wait before the next retry and advances the
// schedule.
func (s *schedule) next() time.Duration {
	d := s.delay
	if jitter := min(s.p.Jitter, 1); jitter > 0 {
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(s.p.Seed))
		}
		// A jitter of 0.2 yields a uniform draw from [0.9d, 1.1d).
		d = time.Duration(float64(d) * (1 - jitter/2 + jitter*s.rng.Float64()))
	}
	s.delay = min(time.Duration(float64(s.delay)*s.p.Multiplier), s.p.MaxDelay)
	return d
}

// sleep waits for d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
