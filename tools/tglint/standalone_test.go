package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tailguard/tools/tglint/internal/lint"
)

// TestFindPackagesMatchesGoList: the driver lints exactly the packages
// `go list ./...` reports for the module.
func TestFindPackagesMatchesGoList(t *testing.T) {
	root, modPath, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	got, err := lint.FindPackages(modPath, root)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	want := strings.Fields(string(out))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FindPackages = %v\ngo list ./... = %v", got, want)
	}
}

// TestRunStandaloneGate drives the whole gate over a throwaway module:
// clean code exits 0 silently, each forbidcall row yields exit 1 and
// exactly one analyzer-tagged line, and an unknown flag exits 2.
func TestRunStandaloneGate(t *testing.T) {
	cases := []struct {
		name, file, src, want string
	}{
		{"clean", "internal/sim/sim.go",
			"package sim\n\nimport \"time\"\n\nfunc Span() time.Duration { return 5 * time.Millisecond }\n",
			""},
		{"virtual-time clock", "internal/sim/sim.go",
			"package sim\n\nimport \"time\"\n\nfunc Now() int64 { return time.Now().UnixNano() }\n",
			"internal/sim/sim.go:5:27: wall-clock call time.Now in virtual-time package tailguard/internal/sim"},
		{"obs clock", "internal/obs/obs.go",
			"package obs\n\nimport \"time\"\n\nfunc Age(t0 time.Time) time.Duration { return time.Since(t0) }\n",
			"internal/obs/obs.go:5:47: wall-clock call time.Since inside tailguard/internal/obs"},
		{"fault rand", "internal/fault/fault.go",
			"package fault\n\nimport \"math/rand\"\n\nfunc Gen() { _ = rand.New(nil) }\n",
			"internal/fault/fault.go:5:18: math/rand.New inside tailguard/internal/fault"},
		{"global rand in test", "internal/workload/draw_test.go",
			"package workload\n\nimport \"math/rand\"\n\nfunc draw() int { return rand.Intn(3) }\n",
			"internal/workload/draw_test.go:5:26: math/rand.Intn draws from the process-global random source"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeFile(t, filepath.Join(dir, "go.mod"), "module tailguard\n\ngo 1.22\n")
			writeFile(t, filepath.Join(dir, filepath.FromSlash(tc.file)), tc.src)
			chdir(t, dir)

			var stderr strings.Builder
			code := runStandalone([]string{"./..."}, &stderr)
			if tc.want == "" {
				if code != 0 || stderr.Len() != 0 {
					t.Fatalf("exit %d, output %q; want 0 and no output", code, stderr.String())
				}
				return
			}
			lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
			if code != 1 || len(lines) != 1 ||
				!strings.HasPrefix(lines[0], tc.want) || !strings.HasSuffix(lines[0], " [forbidcall]") {
				t.Fatalf("exit %d, output:\n%s\nwant exit 1 and one line %q ... [forbidcall]", code, stderr.String(), tc.want)
			}
		})
	}

	t.Run("unknown flag", func(t *testing.T) {
		var stderr strings.Builder
		if code := runStandalone([]string{"-json", "./..."}, &stderr); code != 2 {
			t.Fatalf("exit %d, want 2 (output %q)", code, stderr.String())
		}
	})
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// chdir switches the working directory for the rest of the test.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}
