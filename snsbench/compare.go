package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// saved is one benchmark output read back: the detail line with the
// host fingerprint and the result line.
type saved struct {
	host   hostInfo
	result result
}

func readSaved(path string) (saved, error) {
	var s saved
	f, err := os.Open(path)
	if err != nil {
		return s, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	if len(lines) < 2 {
		return s, fmt.Errorf("%s: want a detail line and a result line", path)
	}
	var detail struct {
		Host hostInfo `json:"host"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &detail); err != nil {
		return s, fmt.Errorf("%s: detail line: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.result); err != nil {
		return s, fmt.Errorf("%s: result line: %w", path, err)
	}
	s.host = detail.Host
	return s, nil
}

// compareFiles prints each metric of two saved outputs side by side
// and flags results that came from different hosts. It returns the
// process exit code.
func compareFiles(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: snsbench -compare old.out new.out")
		return 2
	}
	a, err := readSaved(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "snsbench:", err)
		return 1
	}
	b, err := readSaved(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "snsbench:", err)
		return 1
	}
	if !sameHost(a.host, b.host) {
		fmt.Printf("WARNING: different hosts: %+v vs %+v; timings are not comparable\n", a.host, b.host)
	}
	names := make([]string, 0, len(a.result.Metrics))
	for n := range a.result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		old := a.result.Metrics[n]
		cur, ok := b.result.Metrics[n]
		if !ok {
			fmt.Printf("%-36s %14.4f %-6s (missing in new)\n", n, old.Value, old.Unit)
			continue
		}
		change := ""
		if old.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(cur.Value-old.Value)/old.Value)
		}
		fmt.Printf("%-36s %14.4f -> %14.4f %-6s %s\n", n, old.Value, cur.Value, old.Unit, change)
	}
	return 0
}
