package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/monitor/persist"
)

// TestCrashRecoveryAcrossRestart is the end-to-end durability check: a
// real likwid-agent receiver with -wal is fed half a series, SIGKILLed
// (no shutdown path runs — the WAL is all that survives), restarted on
// the same state directory, fed the other half, and must serve the
// complete stitched window as if it had never died.
func TestCrashRecoveryAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the agent binary")
	}
	bin := buildAgent(t)
	walDir := filepath.Join(t.TempDir(), "state")

	// Snapshots are pushed out of the picture (1h): this test pins the
	// WAL-only recovery path; the snapshot path has its own unit tests.
	args := []string{
		"-receiver", "127.0.0.1:0",
		"-wal", walDir, "-snapshot-interval", "1h",
		"-retain", "64", "-tiers", "4s:32",
	}

	// First life: ingest times 0..49, crash hard.
	kill, base := startReceiver(t, bin, args)
	ingestRange(t, base, 0, 50)
	if got := queryPoints(t, base, 0); len(got) != 50 {
		t.Fatalf("pre-crash query returned %d points, want 50", len(got))
	}
	waitBWRecords(t, filepath.Join(walDir, "wal.log"), 50)
	kill()

	// Second life: the 50 pre-crash points must be back before any new
	// ingest, then the other half lands on the same series.
	_, base2 := startReceiver(t, bin, args)
	restored := queryPoints(t, base2, 0)
	if len(restored) != 50 {
		t.Fatalf("restored query returned %d points, want 50: %v", len(restored), restored)
	}
	for i, p := range restored {
		if p.Time != float64(i) || p.Value != float64(i) {
			t.Fatalf("restored point %d = %+v, want time=value=%d", i, p, i)
		}
	}
	ingestRange(t, base2, 50, 100)

	// 100 appends into a 64-point ring: times 36..99 stay raw, 0..35
	// compact into 4s buckets — the stitched window is 9 bucket averages
	// (4k, 4k+1.5) followed by the 64 raw points.
	got := queryPoints(t, base2, 0)
	type pt struct{ Time, Value float64 }
	var want []pt
	for k := 0; k < 9; k++ {
		want = append(want, pt{float64(4 * k), float64(4*k) + 1.5})
	}
	for i := 36; i < 100; i++ {
		want = append(want, pt{float64(i), float64(i)})
	}
	if len(got) != len(want) {
		t.Fatalf("stitched window has %d points, want %d: %v", len(got), len(want), got)
	}
	for i, p := range got {
		if p.Time != want[i].Time || p.Value != want[i].Value {
			t.Fatalf("stitched point %d = %+v, want %+v", i, p, want[i])
		}
	}
}

// buildAgent compiles the binary under test once per test binary run,
// into the directory TestMain owns.
func buildAgent(t *testing.T) string {
	t.Helper()
	agentBin.once.Do(func() {
		agentBin.path = filepath.Join(agentBin.dir, "likwid-agent")
		cmd := exec.Command("go", "build", "-o", agentBin.path, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			agentBin.err = fmt.Errorf("building agent: %v\n%s", err, out)
		}
	})
	if agentBin.err != nil {
		t.Fatal(agentBin.err)
	}
	return agentBin.path
}

// agentBin is the binary buildAgent shares across the package's tests.
var agentBin struct {
	once      sync.Once
	dir, path string
	err       error
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "likwid-agent-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	agentBin.dir = dir
	code := m.Run()
	_ = os.RemoveAll(dir)
	os.Exit(code)
}

// startReceiver launches the binary in receiver mode and returns its
// base URL; kill SIGKILLs and reaps it (see startAgent).
func startReceiver(t *testing.T, bin string, args []string) (kill func(), base string) {
	t.Helper()
	p := startAgent(t, bin, args, "receiver listening")
	return p.kill, p.base
}

// agentProc is one running likwid-agent binary.
type agentProc struct {
	cmd  *exec.Cmd
	base string        // http://ADDR of the listener named in the startup line
	done chan struct{} // closed once the process has exited and been reaped
	err  error         // the exit status, valid once done is closed
	log  *procLog
}

// startAgent launches the binary and scrapes the actual listen address
// (the :0 port) from the addr attribute of the first stderr line
// containing marker, in either -log-format.  The process is SIGKILLed
// and reaped at the test's cleanup at the latest, so a failing test
// leaves no process behind.
func startAgent(t *testing.T, bin string, args []string, marker string) *agentProc {
	t.Helper()
	p := &agentProc{
		cmd:  exec.Command(bin, args...),
		done: make(chan struct{}),
		log:  &procLog{marker: marker, addr: make(chan string, 1)},
	}
	p.cmd.Stderr = p.log
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(p.kill)
	select {
	case addr := <-p.log.addr:
		p.base = "http://" + addr
		waitHealthy(t, p.base)
		return p
	case <-p.done:
		t.Fatalf("agent exited before logging %q (%v); log:\n%s", marker, p.err, p.log)
	case <-time.After(10 * time.Second):
		t.Fatalf("agent never logged %q; log:\n%s", marker, p.log)
	}
	return nil
}

// kill SIGKILLs the process (no shutdown path runs) and reaps it.
func (p *agentProc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only once it has exited
	<-p.done
}

// wait waits up to d for the process to exit on its own and returns its
// exit status.
func (p *agentProc) wait(t *testing.T, d time.Duration) error {
	t.Helper()
	select {
	case <-p.done:
		return p.err
	case <-time.After(d):
		t.Fatalf("agent still running after %v; log:\n%s", d, p.log)
		return nil
	}
}

// terminate sends SIGTERM and returns the exit status of the drain.
func (p *agentProc) terminate(t *testing.T) error {
	t.Helper()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	return p.wait(t, 15*time.Second)
}

// procLog collects a process's stderr and hands the addr attribute of
// the first line containing marker to addr.
type procLog struct {
	marker  string
	addr    chan string
	mu      sync.Mutex
	buf     []byte
	scanned int // bytes of buf already scanned for the marker
	found   bool
}

func (l *procLog) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, b...)
	for {
		n := bytes.IndexByte(l.buf[l.scanned:], '\n')
		if n < 0 {
			return len(b), nil
		}
		line := string(l.buf[l.scanned : l.scanned+n])
		l.scanned += n + 1
		if l.found || !strings.Contains(line, l.marker) {
			continue
		}
		if a := logAddr(line); a != "" {
			l.found = true
			l.addr <- a
		}
	}
}

func (l *procLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.buf)
}

// logAddr extracts the addr attribute of one text or JSON log line.
func logAddr(line string) string {
	var js struct{ Addr string }
	if json.Unmarshal([]byte(line), &js) == nil {
		return js.Addr
	}
	for _, f := range strings.Fields(line) {
		if a, ok := strings.CutPrefix(f, "addr="); ok {
			return a
		}
	}
	return ""
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("receiver at %s never became healthy", base)
}

// ingestRange POSTs one v2 JSON-lines batch with times [from, to).
func ingestRange(t *testing.T, base string, from, to int) {
	t.Helper()
	var body bytes.Buffer
	for i := from; i < to; i++ {
		fmt.Fprintf(&body, `{"time":%d,"source":"nodeA","metric":"bw","scope":"node","id":0,"value":%d}`+"\n", i, i)
	}
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest returned %d: %s", resp.StatusCode, out)
	}
}

func queryPoints(t *testing.T, base string, from float64) []struct{ Time, Value float64 } {
	t.Helper()
	url := fmt.Sprintf("%s/query?source=nodeA&metric=bw&scope=node&id=0&from=%g", base, from)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query returned %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Points []struct{ Time, Value float64 } `json:"points"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("query body %q: %v", body, err)
	}
	return out.Points
}

// waitBWRecords polls the WAL until n ingested bw records are framed
// whole on disk — only then is the SIGKILL guaranteed recoverable.
// (The receiver's self-telemetry series share the log, so frames are
// filtered by metric.)
func waitBWRecords(t *testing.T, path string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if countBWRecords(t, path) >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("WAL %s never reached %d bw records (now %d)", path, n, countBWRecords(t, path))
}

// countBWRecords counts the journaled points of metric "bw" in the whole
// frames of a WAL file through persist's own read-only scan (safe
// against a log mid-write).  Every whole frame must decode: an invalid
// one is a WAL the writer should never have produced.
func countBWRecords(t *testing.T, path string) int {
	t.Helper()
	n := 0
	ws, err := persist.ScanWAL(path, func(samples []monitor.Sample) {
		for _, sm := range samples {
			if sm.Metric == "bw" {
				n++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Invalid > 0 {
		t.Fatalf("WAL %s holds %d frames that do not decode", path, ws.Invalid)
	}
	return n
}
