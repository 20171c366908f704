// Package server stubs the server's configuration for the chaosonly
// fixtures; protocol.go holds the wire types ackafterdurable keys on.
package server

import "pmemlog/internal/chaos"

// Config describes one server instance.
type Config struct {
	Addr  string
	Chaos *chaos.Injector
}
