package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// Entry is one JSONL journal record: the outcome of one unit. Failed runs
// are journaled too (they make the journal a crash log), but only ok
// entries are replayed on resume — failures are retried.
type Entry struct {
	Key       string            `json:"key"`
	Status    Status            `json:"status"`
	Err       string            `json:"err,omitempty"`
	Panic     string            `json:"panic,omitempty"`
	Stack     string            `json:"stack,omitempty"`
	Meta      map[string]string `json:"meta,omitempty"`
	ElapsedMS int64             `json:"elapsed_ms"`
	Value     json.RawMessage   `json:"value,omitempty"`
}

// toEntry converts a result to its journal form. A value that fails to
// marshal is journaled as a failure so resume never replays a bad payload.
func toEntry[T any](r Result[T]) Entry {
	e := Entry{
		Key:       r.Key,
		Status:    r.Status,
		Panic:     r.Panic,
		Stack:     r.Stack,
		Meta:      r.Meta,
		ElapsedMS: r.Elapsed.Milliseconds(),
	}
	if r.Err != nil {
		e.Err = r.Err.Error()
	}
	if r.Status == StatusOK {
		raw, err := json.Marshal(r.Value)
		if err != nil {
			e.Status = StatusFailed
			e.Err = fmt.Sprintf("harness: journaling value: %v", err)
		} else {
			e.Value = raw
		}
	}
	return e
}

// journalWriter appends entries to a JSONL file, one fsync-free line per
// entry, safe for concurrent workers.
type journalWriter struct {
	mu     sync.Mutex
	f      *os.File      // guarded by mu
	bw     *bufio.Writer // guarded by mu
	err    error         // guarded by mu
	closed bool          // guarded by mu
}

func openJournal(path string) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: opening journal: %w", err)
	}
	return &journalWriter{f: f, bw: bufio.NewWriter(f)}, nil
}

// append writes one entry and flushes it, so a killed process loses at most
// the entry being written.
func (j *journalWriter) append(e Entry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.closed {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		j.err = fmt.Errorf("harness: encoding journal entry %s: %w", e.Key, err)
		return
	}
	if _, err := j.bw.Write(append(data, '\n')); err != nil {
		j.err = fmt.Errorf("harness: writing journal: %w", err)
		return
	}
	if err := j.bw.Flush(); err != nil {
		j.err = fmt.Errorf("harness: flushing journal: %w", err)
	}
}

func (j *journalWriter) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	j.closed = true
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = fmt.Errorf("harness: flushing journal: %w", err)
	}
	if err := j.f.Close(); err != nil && j.err == nil {
		j.err = fmt.Errorf("harness: closing journal: %w", err)
	}
	return j.err
}

// loadJournal reads a JSONL journal and returns the ok values by key (the
// last ok entry for a key wins). A missing file is an empty journal.
func loadJournal(path string) (map[string]json.RawMessage, error) {
	entries, err := readEntries(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]json.RawMessage)
	for _, e := range entries {
		if e.Status == StatusOK && e.Value != nil {
			out[e.Key] = e.Value
		}
	}
	return out, nil
}

// readEntries loads every entry of a journal file. A syntactically broken
// line or an entry without a key fails the load: silently skipping it
// could silently recompute — or worse, skip — work, so the operator must
// decide (delete the journal or fix the line).
func readEntries(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("harness: opening journal: %w", err)
	}
	defer f.Close()
	var out []Entry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("harness: journal %s line %d: %w", path, lineNo, err)
		}
		if e.Key == "" {
			return nil, fmt.Errorf("harness: journal %s line %d: entry without key", path, lineNo)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("harness: reading journal %s: %w", path, err)
	}
	return out, nil
}
