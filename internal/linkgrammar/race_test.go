//go:build race

package linkgrammar

func init() { raceEnabled = true }
