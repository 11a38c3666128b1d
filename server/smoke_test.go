package server_test

// End-to-end smoke test of the real binary (ISSUE 10 satellite; ci.sh
// runs it as the endpoint gate): build cmd/db2rdf-server, start it on
// an ephemeral port, speak the protocol over TCP, scrape /metrics,
// then SIGTERM it and require a clean drain and exit 0.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"db2rdf/results"
)

func TestServerBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	dir := t.TempDir()
	bin := buildServer(t, dir)

	// A small N-Triples fixture, loaded at startup.
	nt := filepath.Join(dir, "data.nt")
	var b strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "<http://smoke/s%d> <http://smoke/p> \"v%d\" .\n", i, i)
	}
	if err := os.WriteFile(nt, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd, addr, stderr := startServer(t, bin, "-listen", "127.0.0.1:0", "-load", nt, "-writable")
	base := "http://" + addr

	// Query over GET, decode the negotiated JSON body.
	resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(`SELECT ?s ?o WHERE { ?s <http://smoke/p> ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := results.ReadJSON(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("query: status %d, err %v", resp.StatusCode, err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("query returned %d rows, want 20", len(res.Rows))
	}

	// Update over POST (the binary was started -writable).
	resp, err = http.Post(base+"/sparql", "application/sparql-update",
		strings.NewReader(`INSERT DATA { <http://smoke/new> <http://smoke/p> "fresh" }`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"inserted":1`) {
		t.Fatalf("update: status %d body %s", resp.StatusCode, body)
	}

	// Scrape /metrics and verify the exposition parses clean with the
	// strict conformance parser and shows the served traffic.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(expo), "db2rdf_queries_served_total 1") {
		t.Errorf("metrics do not reflect the served query:\n%.500s", expo)
	}
	if !strings.Contains(string(expo), "db2rdf_updates_total 1") {
		t.Errorf("metrics do not reflect the served update")
	}

	// SIGTERM must drain and exit 0.
	stopServer(t, cmd, stderr)
}

// TestServerBinarySIGTERMAtStartup signals the server the moment it
// announces its address, five times over one binary: the handler is in
// place before the listener exists, so every run drains and exits 0.
func TestServerBinarySIGTERMAtStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildServer(t, t.TempDir())
	for i := 0; i < 5; i++ {
		cmd, _, stderr := startServer(t, bin, "-listen", "127.0.0.1:0")
		stopServer(t, cmd, stderr)
	}
}

// buildServer builds cmd/db2rdf-server into dir and returns its path.
func buildServer(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "db2rdf-server")
	build := exec.Command("go", "build", "-o", bin, "db2rdf/cmd/db2rdf-server")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building server binary: %v\n%s", err, out)
	}
	return bin
}

// startServer starts bin with args and returns the process and the
// address its listening line announces. The process's stderr is echoed
// and collected in the returned buffer, which is complete once the
// process has been waited for.
func startServer(t *testing.T, bin string, args ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := &bytes.Buffer{}
	cmd.Stderr = io.MultiWriter(os.Stderr, stderr)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	// The startup line carries the resolved ephemeral address.
	sc := bufio.NewScanner(stdout)
	lineCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "listening on ") {
				lineCh <- strings.TrimSpace(line[strings.Index(line, "listening on ")+len("listening on "):])
				break
			}
		}
		close(lineCh)
	}()
	select {
	case a, ok := <-lineCh:
		if !ok || a == "" {
			t.Fatal("server exited before announcing its address")
		}
		return cmd, a, stderr
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the listening line")
	}
	return nil, "", nil
}

// stopServer sends cmd SIGTERM and requires a drain: exit 0 within 30s
// and "clean shutdown" on stderr.
func stopServer(t *testing.T, cmd *exec.Cmd, stderr *bytes.Buffer) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited uncleanly after SIGTERM: %v", err)
		}
		if !strings.Contains(stderr.String(), "clean shutdown") {
			t.Fatalf("server exited 0 without a clean shutdown:\n%s", stderr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit within 30s of SIGTERM")
	}
}

// moduleRoot locates the repository root (go.mod) from the test's
// working directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
