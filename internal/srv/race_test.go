//go:build race

package srv_test

const raceEnabled = true
