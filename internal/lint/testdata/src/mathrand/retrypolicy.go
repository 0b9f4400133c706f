// Retry-policy jitter is the app-plane shape of the same rule: backoff
// randomness decides when retries re-enter the fabric, so it must come
// from the per-client sim.Rand stream — a math/rand draw would make
// the SLO tables flap run to run.
package mathrand

import (
	"math/rand" //nolint:gci // second import site: the violation under test
	"time"
)

// JitterPolicy mimics internal/app.RetryPolicy with unseeded jitter —
// the violation.
type JitterPolicy struct{ Base time.Duration }

// Backoff doubles Base per attempt with global-source jitter.
func (p JitterPolicy) Backoff(attempt int) time.Duration {
	d := p.Base << (attempt - 1)
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}
