package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// schedIdle is the SCHED_IDLE scheduling policy.
const schedIdle = 5

// spin runs one busy loop per CPU at SCHED_IDLE, the lowest priority
// there is: any runnable server or generator thread preempts it at
// once, so it takes no CPU time anyone else wants. It keeps the CPUs
// out of idle, where waking a virtual CPU (a HLT exit to the host)
// costs up to a millisecond and varies with the host's load. It
// returns when stdin closes.
func spin() {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				fmt.Fprintf(os.Stderr, "classbench: spinner: sched_setscheduler: %v\n", errno)
				return
			}
			for {
			}
		}()
	}
	_, _ = io.Copy(io.Discard, os.Stdin)
}

// spinner is a running spin child process.
type spinner struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// startSpinner starts this program in -spin mode.
func startSpinner() (*spinner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-spin")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &spinner{cmd: cmd, stdin: stdin}, nil
}

// stop closes the spinner's stdin and waits for it to exit.
func (s *spinner) stop() error {
	s.stdin.Close()
	return s.cmd.Wait()
}
