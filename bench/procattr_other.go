//go:build !linux

package main

import "os/exec"

// dieWithParent needs Linux's parent-death signal; elsewhere the
// deferred stops in run.go are the only guard.
func dieWithParent(*exec.Cmd) {}
