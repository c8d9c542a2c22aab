package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunSurvivesCorruptCache pins graceful degradation: a cache file
// that is not a cache at all, or a cache of an older format version,
// must never kill the run — it is warned about, preserved aside as
// <path>.corrupt, and the campaign runs cold and saves a fresh cache at
// the original path.
func TestRunSurvivesCorruptCache(t *testing.T) {
	garbage := []byte("this is not a simulation cache at all")
	for _, tc := range []struct {
		name, mode string
		content    []byte
	}{
		{"cache", "cache", garbage},
		{"replay-cache", "replay-cache", garbage},
		{"v4-cache", "cache", v4CacheFile()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "url.simcache")
			if err := os.WriteFile(path, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			c := base("URL")
			if tc.mode == "cache" {
				c.cachePath = path
			} else {
				c.replayCache = path
			}
			if err := run(context.Background(), c); err != nil {
				t.Fatalf("unusable %s killed the run: %v", tc.mode, err)
			}
			aside, err := os.ReadFile(path + ".corrupt")
			if err != nil {
				t.Fatalf("unusable cache not preserved aside: %v", err)
			}
			if !bytes.Equal(aside, tc.content) {
				t.Fatal("preserved .corrupt file does not hold the original bytes")
			}
			// The run replaced the unusable file with a fresh, loadable cache.
			f, err := os.Open(path)
			if err != nil {
				t.Fatalf("fresh cache not written over the unusable path: %v", err)
			}
			defer f.Close()
			head := make([]byte, 8)
			if _, err := f.Read(head); err != nil || string(head) != "DDTCACHE" {
				t.Fatalf("fresh cache is not a sectioned cache file (header %q, err %v)", head, err)
			}
		})
	}
}

// v4CacheFile returns a well-formed, empty cache file of format version
// 4: the magic, the version, and a checksummed end marker.
func v4CacheFile() []byte {
	b := append([]byte("DDTCACHE"), 4, 0, 0, 0)
	hdr := make([]byte, 9, 13)
	hdr[0] = 0xFF // end marker, zero length
	tab := crc32.MakeTable(crc32.Castagnoli)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, tab))
	b = append(b, hdr...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(nil, tab))
}

// TestRepeatedCorruptionNumbersAside pins the evidence-preservation
// contract across repeated corruption: a second unusable cache must
// move aside to <path>.corrupt.1 — never overwrite the first event's
// <path>.corrupt — and so on for each further event.
func TestRepeatedCorruptionNumbersAside(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "url.simcache")
	c := base("URL")
	c.cachePath = path

	garbage := [][]byte{
		[]byte("first corruption event, distinct bytes A"),
		[]byte("second corruption event, distinct bytes BB"),
		[]byte("third corruption event, distinct bytes CCC"),
	}
	asides := []string{path + ".corrupt", path + ".corrupt.1", path + ".corrupt.2"}
	for i, g := range garbage {
		if err := os.WriteFile(path, g, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(context.Background(), c); err != nil {
			t.Fatalf("corruption event %d killed the run: %v", i, err)
		}
	}
	for i, aside := range asides {
		got, err := os.ReadFile(aside)
		if err != nil {
			t.Fatalf("event %d evidence missing at %s: %v", i, aside, err)
		}
		if !bytes.Equal(got, garbage[i]) {
			t.Fatalf("%s holds %q, want event %d's bytes %q", aside, got, i, garbage[i])
		}
	}
	if _, err := os.Lstat(path + ".corrupt.3"); !os.IsNotExist(err) {
		t.Fatal("a fourth aside file appeared out of nowhere")
	}
}

// TestRunSalvagesTruncatedCache pins the salvage path end to end: a
// cache torn mid-write (as a crash during a checkpoint save would leave
// behind on a filesystem without atomic rename) still loads everything
// before the tear and the run completes normally.
func TestRunSalvagesTruncatedCache(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "url.simcache")
	c := base("URL")
	c.cachePath = path
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), c); err != nil {
		t.Fatalf("truncated cache killed the run: %v", err)
	}
	if _, err := os.Stat(path + ".corrupt"); !os.IsNotExist(err) {
		t.Fatal("a merely truncated cache was moved aside instead of salvaged")
	}
}

// childExplore re-execs the test binary as the real ddt-explore command
// (see TestMain), so interruption is tested against genuine process
// signals, exit codes and stdio.
func childExplore(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BE_DDT_EXPLORE=1")
	return cmd
}

// paretoTable extracts the step-3 cross-configuration Pareto table from
// a run's stdout — the artifact interrupted-and-resumed campaigns must
// reproduce bit for bit.
func paretoTable(t *testing.T, stdout string) string {
	t.Helper()
	lines := strings.Split(stdout, "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "cross-configuration Pareto-optimal set") {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatalf("no Pareto table in output:\n%s", stdout)
	}
	for j := start + 1; j < len(lines); j++ {
		if strings.HasPrefix(lines[j], "trade-offs") {
			return strings.Join(lines[start:j], "\n")
		}
	}
	t.Fatalf("Pareto table never ends:\n%s", stdout)
	return ""
}

var cacheHitsRe = regexp.MustCompile(`cache hits (\d+)`)

// TestInterruptedRunResumes is the end-to-end interruption pin: a
// campaign SIGINT'd after its first persisted checkpoint exits 0 with
// the state saved; rerunning the identical command resumes from the
// watermark (reported on stderr), serves settled work from the cache,
// and prints the identical Pareto table as an uninterrupted run.
func TestInterruptedRunResumes(t *testing.T) {
	dir := t.TempDir()
	cachePath := filepath.Join(dir, "drr.replay")
	campaign := []string{"-app", "DRR", "-packets", "6000", "-compose",
		"-replay-cache", cachePath, "-checkpoint-every", "10"}

	// Uninterrupted reference: same campaign, its own cache file.
	refCmd := childExplore("-app", "DRR", "-packets", "6000", "-compose",
		"-replay-cache", filepath.Join(dir, "ref.replay"), "-checkpoint-every", "10")
	refOut, err := refCmd.Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refTable := paretoTable(t, string(refOut))

	// Interrupted run: SIGINT as soon as the first checkpoint persists.
	intCmd := childExplore(campaign...)
	var intOut bytes.Buffer
	intCmd.Stdout = &intOut
	stderrPipe, err := intCmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := intCmd.Start(); err != nil {
		t.Fatal(err)
	}
	var intErr strings.Builder
	sc := bufio.NewScanner(stderrPipe)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		intErr.WriteString(line + "\n")
		if !signalled && strings.HasPrefix(line, "checkpoint:") {
			signalled = true
			if err := intCmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatalf("signalling child: %v", err)
			}
		}
	}
	if err := intCmd.Wait(); err != nil {
		t.Fatalf("interrupted run exited nonzero: %v\nstderr:\n%s", err, intErr.String())
	}
	if !signalled {
		t.Fatalf("campaign finished before its first checkpoint; stderr:\n%s", intErr.String())
	}
	interrupted := strings.Contains(intErr.String(), "interrupted: campaign state saved")
	if !interrupted {
		// The campaign won the race and completed before the signal
		// landed — rare, but a legal outcome. The rerun below is then a
		// warm rerun rather than a resume; the table must still match.
		t.Logf("campaign completed before the interrupt landed; checking the warm rerun only")
	}

	// Rerun the identical command: it must pick the campaign up.
	resCmd := childExplore(campaign...)
	var resOut, resErr bytes.Buffer
	resCmd.Stdout = &resOut
	resCmd.Stderr = &resErr
	if err := resCmd.Run(); err != nil {
		t.Fatalf("resumed run exited nonzero: %v\nstderr:\n%s", err, resErr.String())
	}
	if interrupted {
		if !strings.Contains(resErr.String(), "resuming:") {
			t.Fatalf("resumed run did not report resumption; stderr:\n%s", resErr.String())
		}
	} else if !strings.Contains(resErr.String(), "campaign complete") {
		t.Fatalf("warm rerun did not recognize the finished campaign; stderr:\n%s", resErr.String())
	}
	if got := paretoTable(t, resOut.String()); got != refTable {
		t.Fatalf("resumed Pareto table differs from the uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", got, refTable)
	}
	m := cacheHitsRe.FindStringSubmatch(resOut.String())
	if m == nil {
		t.Fatalf("no cache-hit stats in resumed output:\n%s", resOut.String())
	}
	if hits, _ := strconv.Atoi(m[1]); hits == 0 {
		t.Fatal("resumed run hit nothing in the persisted cache")
	}
}
