//go:build race

package xqp

func init() { raceEnabled = true }
