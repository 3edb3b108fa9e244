//go:build race

package transfusion_test

func init() { raceEnabled = true }
