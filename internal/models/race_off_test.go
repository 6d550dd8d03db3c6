//go:build !race

package models

// raceEnabled mirrors the race detector's build tag. Malloc-count gates skip
// under -race: sync.Pool randomly drops items there by design (to provoke
// races), so pooled paths report spurious allocations.
const raceEnabled = false
