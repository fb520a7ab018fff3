package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestProfilesAreWrittenAtStop(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "c.out"), filepath.Join(dir, "m.out")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatalf("startProfiles: %v", err)
	}
	if _, err := os.Stat(mem); !os.IsNotExist(err) {
		t.Fatalf("the allocation profile exists before stop: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("%s: %v, want a non-empty profile", filepath.Base(path), err)
		}
	}
}

func TestProfilesOffAndUnwritable(t *testing.T) {
	stop, err := startProfiles("", "")
	if err != nil || stop() != nil {
		t.Fatalf("no profiles: %v", err)
	}
	missing := filepath.Join(t.TempDir(), "no-such-dir", "p.out")
	if _, err := startProfiles(missing, ""); err == nil {
		t.Fatal("startProfiles accepted an unwritable CPU profile path")
	}
	stop, err = startProfiles("", missing)
	if err != nil {
		t.Fatalf("startProfiles: %v", err)
	}
	if stop() == nil {
		t.Fatal("stop reported no error writing to an unwritable path")
	}
}
