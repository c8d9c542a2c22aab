//go:build race

package astream_test

// raceEnabled reports a race-detector build, whose sync.Pool drops
// pooled objects at random: allocation bounds that rely on the replay
// scratch pool do not hold there.
const raceEnabled = true
