// Package des is a detwall corpus for the forbidden-source table: every
// wall-clock, global-stream, entropy and process-identity source is
// flagged; seeded *rand.Rand methods and time.Duration values are not.
package des

import (
	crand "crypto/rand"
	"math/rand"
	"os"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want `time.Now reads the wall clock`
}

func sleeps() {
	time.Sleep(time.Millisecond) // want `time.Sleep blocks on real time`
	<-time.After(time.Second)    // want `time.After fires on real time`
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time.Since reads the wall clock`
}

func globalRand() int {
	rand.Seed(42)       // want `math/rand.Seed reseeds the global stream`
	_ = rand.Float64()  // want `math/rand.Float64 draws from the global stream`
	return rand.Intn(8) // want `math/rand.Intn draws from the global stream`
}

func entropy(buf []byte) {
	_, _ = crand.Read(buf) // want `crypto/rand.Read reads crypto entropy`
	_ = os.Getpid()        // want `os.Getpid reads process identity`
}

// seededRand is the legal pattern: an explicit source, seeded by the
// caller (faults.Schedule in the real tree).
func seededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// durations shows that time.Duration arithmetic — a pure value type —
// is fine; only the wall-clock functions are forbidden.
func durations(d time.Duration) time.Duration {
	return d + 3*time.Millisecond
}

// allowed shows a justified suppression: the diagnostic on the next
// line is silenced because the allow names detwall and gives a reason.
func allowed() time.Time {
	//iovet:allow(detwall) corpus fixture: pinning the suppression path
	return time.Now()
}
