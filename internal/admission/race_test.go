//go:build race

package admission

func init() { raceEnabled = true }
