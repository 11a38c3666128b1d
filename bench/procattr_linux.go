package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the kernel kill the server if the benchmark dies
// first, so no run can leave a process behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
