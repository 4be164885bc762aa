package bandslim

import (
	"bandslim/internal/driver"
	"bandslim/internal/fault"
	"bandslim/internal/nvme"
)

// Deterministic fault injection and crash recovery.
//
// A FaultPlan is a seed plus a list of rules; each rule arms one injection
// site (a NAND operation, a DMA direction, or command dispatch) with a
// trigger (the Nth occurrence, every Nth, probability p, or an absolute
// simulated time) and an effect (a media error, a transient transfer error,
// or a power cut). Everything is derived from the plan seed — two runs with
// the same config, workload, and plan inject the same faults at the same
// simulated times and recover to the same state.
//
// Effects and what survives them:
//
//   - Media errors retire the failing NAND block; the FTL redirects the
//     write and the operation usually still succeeds (bounded retries).
//   - Transient errors surface as retryable NVMe completions; the driver
//     re-submits under Config.Retry.
//   - Power cuts freeze the device: every volatile structure (MemTable,
//     open command, iterator, SQ/CQ rings) is lost, while battery-backed
//     state (the vLog page buffer and the index journal) survives, matching
//     the paper's platform (§2.2). DB.Recover mounts the device again and
//     replays the journal, restoring every acknowledged write.
//
// Plans come from ParseFaultPlan's text format:
//
//	seed 42
//	# one media error on the 3rd NAND program
//	nand.program nth=3 media
//	# 1% transient transfer errors on inbound DMA between 1ms and 5ms
//	dma.in p=0.01 from=1ms to=5ms transient
//	# cut power at 12ms
//	power at=12ms

// FaultPlan is a deterministic fault schedule: a seed plus rules. See
// ParseFaultPlan for the text format.
type FaultPlan = fault.Plan

// FaultRule arms one injection site with a trigger and an effect.
type FaultRule = fault.Rule

// FaultSite identifies where in the stack a rule injects.
type FaultSite = fault.Site

// Injection sites.
const (
	// FaultNandProgram fires on NAND page programs.
	FaultNandProgram = fault.SiteNandProgram
	// FaultNandRead fires on NAND page reads.
	FaultNandRead = fault.SiteNandRead
	// FaultNandErase fires on NAND block erases.
	FaultNandErase = fault.SiteNandErase
	// FaultDMAIn fires on host-to-device DMA transfers.
	FaultDMAIn = fault.SiteDMAIn
	// FaultDMAOut fires on device-to-host DMA transfers.
	FaultDMAOut = fault.SiteDMAOut
	// FaultExec fires on device command dispatch (any opcode).
	FaultExec = fault.SiteExec
)

// FaultEffect is what an armed rule does when it fires.
type FaultEffect = fault.Effect

// Effects.
const (
	// FaultMedia is a permanent NAND failure: the FTL retires the block.
	FaultMedia = fault.EffectMedia
	// FaultTransient is a retryable error: the driver re-submits.
	FaultTransient = fault.EffectTransient
	// FaultPowerCut truncates all volatile device state; recover with
	// DB.Recover.
	FaultPowerCut = fault.EffectPowerCut
)

// ParseFaultPlan parses the text plan format: one directive per line,
// '#' comments. `seed N` sets the plan seed; every other line is
// `<site> <trigger...> <effect>` with sites nand.program, nand.read,
// nand.erase, dma.in, dma.out, exec; triggers nth=N, every=N, p=F, at=DUR
// (plus optional window from=DUR to=DUR); effects media, transient,
// powercut. `power at=DUR` is shorthand for `exec at=DUR powercut`.
// Durations take ns/us/ms/s suffixes.
func ParseFaultPlan(text string) (*FaultPlan, error) {
	return fault.ParsePlan(text)
}

// FormatFaultPlan renders a plan back into the canonical text format
// ParseFaultPlan accepts (a fixed point: formatting a parsed plan and
// re-parsing yields the same plan).
func FormatFaultPlan(p *FaultPlan) string {
	return fault.FormatPlan(p)
}

// RetryPolicy bounds the driver's re-submission of retryable completions;
// see Config.Retry.
type RetryPolicy = driver.RetryPolicy

// DefaultRetryPolicy returns the driver's default: four retries with an
// exponential backoff starting at 10 µs.
func DefaultRetryPolicy() RetryPolicy {
	return driver.DefaultRetryPolicy()
}

// IsPowerLoss reports whether err is a power-loss completion — the device is
// down and DB.Recover is required.
func IsPowerLoss(err error) bool {
	s, ok := nvme.StatusOf(err)
	return ok && s == nvme.StatusPowerLoss
}

// IsTransient reports whether err is a retryable transfer error that
// outlived the retry policy.
func IsTransient(err error) bool {
	s, ok := nvme.StatusOf(err)
	return ok && s == nvme.StatusTransient
}

// IsMedia reports whether err is an unrecovered NAND media error.
func IsMedia(err error) bool {
	s, ok := nvme.StatusOf(err)
	return ok && s == nvme.StatusMedia
}

// IsNotFound reports whether err is a key-not-found completion.
func IsNotFound(err error) bool {
	s, ok := nvme.StatusOf(err)
	return ok && s == nvme.StatusKeyNotFound
}

// Recover remounts every shard's device after a power cut, in parallel:
// fresh queues, the LSM index rolled back to its last durable flush, and the
// battery-backed index journal replayed — restoring every acknowledged
// write. Unacknowledged operations that were in flight when power was lost
// are atomically present or absent. Mounting a shard that never lost power
// is a harmless no-op, so Recover is safe to call whenever any operation
// reports IsPowerLoss. A plan can cut power again during replay; Recover
// then returns a power-loss error and a subsequent Recover resumes where
// replay stopped. The first error in shard order wins.
func (db *DB) Recover() error { return db.g.Recover() }
