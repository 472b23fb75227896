package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// compareRecord checks the run's exact values (output digests and work
// counts) against the first run of the same binaries, workload, seed
// and mode in this checkout, and stores them when there is none yet.
// Any drift is a failed check: these values are pure functions of the
// inputs under the repository's determinism contract.
func (r *runner) compareRecord() error {
	if len(r.out.record) == 0 {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	digest, err := fileDigest(self, r.binary("obfuscate"), r.binary("evaluate"), r.binary("queryd"))
	if err != nil {
		return err
	}
	dir := filepath.Join(r.work, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t-%s.json", r.workload, r.seed, r.traced, digest[:16]))
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		b, err := json.MarshalIndent(r.out.record, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return err
	}
	var prev map[string]string
	if err := json.Unmarshal(b, &prev); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, d := range recordDrift(prev, r.out.record) {
		r.out.problem("drift from an earlier run with the same binaries and seed: %s", d)
	}
	return nil
}

// recordDrift lists the keys whose values differ between two records.
func recordDrift(prev, cur map[string]string) []string {
	var out []string
	for k, v := range cur {
		if p, ok := prev[k]; ok && p != v {
			out = append(out, fmt.Sprintf("%s was %s, now %s", k, p, v))
		}
	}
	sort.Strings(out)
	return out
}

// fileDigest hashes the contents of the named files, in order.
func fileDigest(paths ...string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func bytesDigest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
