// Package sim provides a deterministic discrete-event simulation kernel.
//
// Simulated entities are written as ordinary sequential Go code running in
// processes (Proc). The kernel guarantees that exactly one process (or event
// callback) executes at a time and that events fire in (time, sequence)
// order, so a simulation is fully deterministic and race-free by
// construction.
//
// Simulated time is measured in integer picoseconds, fine enough to express
// single cycles of multi-GHz clocks without rounding (one cycle at 2.45GHz
// is 408ps) while still covering about 106 days in an int64.
package sim

import "fmt"

// Time is an absolute simulated timestamp in picoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable simulated timestamp.
const MaxTime = Time(1<<63 - 1)

// Add returns the time d after t, or MaxTime where that would not fit a
// Time: a delay past the end of the clock never comes due.
func (t Time) Add(d Duration) Time {
	if u := t + Time(d); d <= 0 || u > t {
		return u
	}
	return MaxTime
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Nanoseconds returns the duration as a floating-point number of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds returns the duration as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string {
	neg := ""
	if d < 0 {
		neg = "-"
		d = -d
	}
	switch {
	case d >= Second:
		return fmt.Sprintf("%s%.6gs", neg, d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%s%.6gms", neg, float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%s%.6gus", neg, d.Microseconds())
	case d >= Nanosecond:
		return fmt.Sprintf("%s%.6gns", neg, d.Nanoseconds())
	default:
		return fmt.Sprintf("%s%dps", neg, int64(d))
	}
}

func (t Time) String() string { return Duration(t).String() }

// Cycles returns the duration of n clock cycles at the given frequency.
// It rounds to the nearest picosecond.
func Cycles(n int64, hz float64) Duration {
	if hz <= 0 {
		panic("sim: Cycles with non-positive frequency")
	}
	ps := float64(n) * 1e12 / hz
	return Duration(ps + 0.5)
}

// AtRate returns the time needed to move the given number of bytes at a
// sustained rate of bytesPerSec.
func AtRate(bytes int64, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 {
		panic("sim: AtRate with non-positive rate")
	}
	ps := float64(bytes) * 1e12 / bytesPerSec
	return Duration(ps + 0.5)
}

// Hz converts a frequency in GHz to Hz; a small readability helper for
// configuration tables.
func GHz(f float64) float64 { return f * 1e9 }

// Gbps converts a link rate in gigabits per second to bytes per second.
func Gbps(r float64) float64 { return r * 1e9 / 8 }

// GBps converts a memory rate in gigabytes per second to bytes per second.
func GBps(r float64) float64 { return r * 1e9 }
