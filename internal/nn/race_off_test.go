//go:build !race

package nn

// raceEnabled mirrors the race detector's build tag. AllocsPerRun
// assertions skip under -race: sync.Pool randomly drops items there by
// design (to provoke races), so pooled paths report spurious allocations.
const raceEnabled = false
