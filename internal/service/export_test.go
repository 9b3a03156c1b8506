package service

import "time"

// SetBodyReadTimeout sets ReadBody's body read deadline for a test and
// returns the function that restores it.
func SetBodyReadTimeout(d time.Duration) (restore func()) {
	old := bodyReadTimeout
	bodyReadTimeout = d
	return func() { bodyReadTimeout = old }
}
