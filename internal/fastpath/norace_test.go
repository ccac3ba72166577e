//go:build !race

package fastpath

// raceEnabled reports a -race build, where sync.Pool drops Puts at random
// and allocation counts mean nothing.
const raceEnabled = false
