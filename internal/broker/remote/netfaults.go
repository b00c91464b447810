package remote

import (
	"fmt"
	"time"

	"repro/internal/rng"
)

// Action is the injector's decision for one frame at its send point.
// The zero Action sends the frame untouched.
type Action struct {
	// Drop suppresses the frame entirely.
	Drop bool
	// Delay pauses the sender before the frame goes out (head-of-line:
	// later frames on the same connection wait behind it, as on a real
	// link).
	Delay time.Duration
	// Duplicate sends the frame twice back to back.
	Duplicate bool
	// Hold retains the frame and releases it after the next one,
	// swapping the pair on the wire (adjacent reorder). A held frame is
	// flushed at connection close so it is delayed, never lost.
	Hold bool
}

// NetFaults plans per-frame transport faults. Plan must be a pure
// function of (conn, frame) — no shared mutable state — so the same
// logical frame always rolls the same fault regardless of scheduling.
// Faults move or suppress
// frames; they never alter payloads, which is why they can relocate an
// evaluation between workers but never change what it returns.
type NetFaults interface {
	Plan(conn string, frame int) Action
}

// SeededNetFaults derives fault decisions from named rng streams keyed
// by (seed, conn, frame), the same substream discipline as
// internal/faults. Rates are independent probabilities per frame;
// a partition is modeled as a deterministic contiguous window: when
// frame n rolls a partition start, frames n..n+PartitionLen-1 on that
// connection are all dropped — Plan stays pure because membership in a
// window is recomputed from the predecessors' rolls, not remembered.
type SeededNetFaults struct {
	Seed int64
	// DropRate drops individual frames.
	DropRate float64
	// DelayRate delays frames by DelayFor (default 1ms).
	DelayRate float64
	DelayFor  time.Duration
	// DupRate duplicates frames.
	DupRate float64
	// ReorderRate holds a frame back one slot (adjacent swap).
	ReorderRate float64
	// PartitionRate starts a contiguous drop window of PartitionLen
	// frames (default 4), simulating a partition that later heals.
	PartitionRate float64
	PartitionLen  int
}

func (f SeededNetFaults) roll(tag, conn string, frame int) float64 {
	key := fmt.Sprintf("netfault|%d|%s|%s|%d", f.Seed, tag, conn, frame)
	return rng.New(rng.Hash64(key)).Float64()
}

// partitioned reports whether frame falls inside any partition window
// opened by itself or a predecessor.
func (f SeededNetFaults) partitioned(conn string, frame int) bool {
	if f.PartitionRate <= 0 {
		return false
	}
	plen := f.PartitionLen
	if plen <= 0 {
		plen = 4
	}
	lo := frame - plen + 1
	if lo < 0 {
		lo = 0
	}
	for n := lo; n <= frame; n++ {
		if f.roll("partition", conn, n) < f.PartitionRate {
			return true
		}
	}
	return false
}

// Plan implements NetFaults.
func (f SeededNetFaults) Plan(conn string, frame int) Action {
	var a Action
	if f.partitioned(conn, frame) {
		a.Drop = true
		return a
	}
	if f.DropRate > 0 && f.roll("drop", conn, frame) < f.DropRate {
		a.Drop = true
		return a
	}
	if f.DelayRate > 0 && f.roll("delay", conn, frame) < f.DelayRate {
		a.Delay = f.DelayFor
		if a.Delay <= 0 {
			a.Delay = time.Millisecond
		}
	}
	if f.DupRate > 0 && f.roll("dup", conn, frame) < f.DupRate {
		a.Duplicate = true
	}
	if f.ReorderRate > 0 && f.roll("reorder", conn, frame) < f.ReorderRate {
		a.Hold = true
	}
	return a
}
