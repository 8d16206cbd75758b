package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workDirName is where everything the benchmark writes lives, at the root
// of the checkout: the knnserver binary, per-run data dirs, logs.
const workDirName = ".bench_build"

// findRepoRoot walks up from dir to the directory whose go.mod declares
// module goldfinger — the tree under test.
func findRepoRoot(dir string) (string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		raw, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(raw), "\n") {
				if strings.TrimSpace(line) == "module goldfinger" {
					return d, nil
				}
			}
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no go.mod declaring module goldfinger above %s", dir)
		}
	}
}

// buildServer compiles cmd/knnserver of the tree under test, without the
// race detector, into the work dir. The go tool's cache makes every call
// after the first a sub-second no-op.
func buildServer(root, workDir string) (string, error) {
	bin := filepath.Join(workDir, "knnserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/knnserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building knnserver: %v\n%s", err, out)
	}
	return bin, nil
}

// procs owns every child process and temp dir of a run, so one call tears
// all of it down on exit, panic or signal.
type procs struct {
	bin    string
	runDir string

	mu       sync.Mutex
	children []*proc
}

func newProcs(bin, workDir string) (*procs, error) {
	runDir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	return &procs{bin: bin, runDir: runDir}, nil
}

// cleanup kills every child still running and removes the run dir. Safe to
// call more than once and from a signal handler goroutine.
func (ps *procs) cleanup() {
	ps.mu.Lock()
	children := ps.children
	ps.children = nil
	ps.mu.Unlock()
	for _, p := range children {
		p.kill()
	}
	os.RemoveAll(ps.runDir)
}

// reset kills every child and empties the run dir, so the next workload
// starts from nothing.
func (ps *procs) reset() error {
	ps.cleanup()
	return os.MkdirAll(ps.runDir, 0o755)
}

func (ps *procs) dataDir(name string) (string, error) {
	dir := filepath.Join(ps.runDir, name)
	return dir, os.MkdirAll(dir, 0o755)
}

// spawner is a goroutine wired to one OS thread for the life of the
// benchmark. Pdeathsig fires when the thread that forked a child exits,
// not when the process does, and the Go runtime retires threads now and
// then; children forked from this one die only with the benchmark.
var spawner = func() chan func() {
	ch := make(chan func())
	go func() {
		runtime.LockOSThread()
		for f := range ch {
			f()
		}
	}()
	return ch
}()

func onSpawner(f func() error) error {
	errc := make(chan error, 1)
	spawner <- func() { errc <- f() }
	return <-errc
}

// proc is one knnserver OS process.
type proc struct {
	name    string
	cmd     *exec.Cmd
	addr    string
	started time.Duration // exec → listen line
	done    chan struct{} // closed once the stderr drain ended

	mu   sync.Mutex
	tail []string // last log lines, for error reports
}

func (p *proc) url() string { return "http://" + p.addr }
func (p *proc) pid() int    { return p.cmd.Process.Pid }

// start execs the server with -addr 127.0.0.1:0 plus args and waits for the
// "listening on <addr>" startup line.
func (ps *procs) start(name string, args ...string) (*proc, error) {
	cmd := exec.Command(ps.bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// A benchmark killed outright must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	t0 := time.Now()
	if err := onSpawner(cmd.Start); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	ps.mu.Lock()
	ps.children = append(ps.children, p)
	ps.mu.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[len(p.tail)-20:]
			}
			p.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					rest = rest[:j]
				}
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case p.addr = <-addrCh:
		p.started = time.Since(t0)
		return p, nil
	case <-p.done:
		p.kill()
		return nil, fmt.Errorf("%s exited before listening:\n%s", name, p.logTail())
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s did not report its listen address:\n%s", name, p.logTail())
	}
}

func (p *proc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// kill SIGKILLs the process — no graceful shutdown, no WAL seal — and
// waits for it. Safe to call twice.
func (p *proc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	<-p.done
	p.cmd.Wait()
}

// stop asks for a graceful shutdown (SIGINT seals the WAL) and waits.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	waited := make(chan error, 1)
	go func() {
		<-p.done
		waited <- p.cmd.Wait()
	}()
	select {
	case err := <-waited:
		return err
	case <-time.After(30 * time.Second):
		p.kill()
		return fmt.Errorf("%s ignored SIGINT for 30s", p.name)
	}
}

// clockTick is the kernel's USER_HZ; it has been 100 on every Linux
// architecture Go supports.
const clockTick = 100

// parseStatCPU extracts utime+stime, in seconds, from the contents of
// /proc/<pid>/stat. The command name may contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, need 13", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTick, nil
}

// parseStatusKB extracts a "Key:   123 kB" line from /proc/<pid>/status.
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// cpuSeconds is the CPU time (user+system) pid has consumed so far.
func cpuSeconds(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	v, _ := parseStatCPU(string(raw))
	return v
}

// memMiB reads VmHWM (peak) or VmRSS (current) of pid in MiB.
func memMiB(pid int, key string) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	kb, _ := parseStatusKB(string(raw), key)
	return float64(kb) / 1024
}
