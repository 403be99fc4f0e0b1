package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// fingerprint identifies the machine and build a result was taken on.
// Compare mode refuses to diff results whose machines differ.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
	CPUModel   string `json:"cpu_model"`
	WALFS      string `json:"wal_fs"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
}

func takeFingerprint(seed int64, walBase string) fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOAMD64:    "n/a",
		CPUModel:   cpuModel(),
		WALFS:      fsType(walBase),
		GitCommit:  "unknown", // a checkout that is not a git repository
		Seed:       seed,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "GOAMD64":
				fp.GOAMD64 = s.Value
			case "vcs.revision":
				fp.GitCommit = s.Value
			}
		}
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s GOAMD64=%s cpu=%q walfs=%s commit=%s seed=%d",
		fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.GOAMD64, fp.CPUModel, fp.WALFS, fp.GitCommit, fp.Seed)
}

// sameMachine reports the first field in which two results' machines
// differ; commit and seed are what a comparison is allowed to vary.
func (a fingerprint) sameMachine(b fingerprint) error {
	a.GitCommit, b.GitCommit = "", ""
	if a.Seed != b.Seed {
		return fmt.Errorf("seeds differ: %d vs %d", a.Seed, b.Seed)
	}
	if a != b {
		return fmt.Errorf("machines differ:\n  A: %+v\n  B: %+v", a, b)
	}
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53:     "ext4",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x6969:     "nfs",
		0x2fc12fc1: "zfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}
