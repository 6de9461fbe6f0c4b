// Package version carries the build identity stamped into the binaries at
// link time. The Makefile's build targets pass
//
//	-ldflags "-X freshsource/internal/version.Version=<git describe>
//	          -X freshsource/internal/version.Commit=<git rev-parse>"
//
// so /healthz, the daemons' -version output and benchjson reports can name
// exactly which build ran; a plain `go build` leaves the dev defaults in
// place.
package version

import "runtime"

var (
	// Version is the human-readable build version ("dev" unless stamped).
	Version = "dev"
	// Commit is the VCS revision the binary was built from.
	Commit = "unknown"
)

// String renders "version (commit, goversion)".
func String() string {
	return Version + " (" + Commit + ", " + runtime.Version() + ")"
}
