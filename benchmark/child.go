package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the checkout's root, the
// directory that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in any parent directory")
		}
		dir = parent
	}
}

// goBuild runs `go build -o out pkg` in dir and reports the compiler's output
// on failure. The Go caches are whatever the caller's environment names;
// run.sh points them inside the checkout.
func goBuild(dir, out string, args ...string) error {
	cmd := exec.Command("go", append([]string{"build", "-o", out}, args...)...)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s in %s: %w\n%s", strings.Join(args, " "), dir, err, msg)
	}
	return nil
}

// child is one `hygraph serve` process over a data directory.
type child struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr bytes.Buffer
}

// freeAddr asks the kernel for an unused loopback port. Another process could
// take it before the child binds; startChild then fails its health wait and
// the caller sees the child's stderr.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startChild starts the server with only its documented flags and waits until
// /v1/health answers ok.
func startChild(bin, dir string, partitions int) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &child{base: "http://" + addr}
	c.cmd = exec.Command(bin, "serve", "-dir", dir, "-addr", addr, "-partitions", strconv.Itoa(partitions))
	c.cmd.Stderr = &c.stderr
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	w := newWire(c.base, 1)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := w.get("/v1/health"); err == nil {
			return c, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.kill()
	return nil, fmt.Errorf("child never became healthy on %s: %s", addr, c.stderr.String())
}

// stop asks the child to drain (SIGTERM) and waits for it to exit.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("child exit: %w: %s", err, c.stderr.String())
	}
	return nil
}

// kill ends the child without letting it flush (SIGKILL) and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // fails only when the child has already exited
	_ = c.cmd.Wait()         // the exit status of a killed child says nothing
}

// peakRSSMB reads the child's high-water resident set from /proc.
func (c *child) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
