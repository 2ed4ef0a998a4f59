package citymesh_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoGoSourceIsGitIgnored fails when a .gitignore pattern matches a Go
// source file in the work tree. git silently leaves such files out of a
// commit, so the author's tree builds while a clean clone does not.
func TestNoGoSourceIsGitIgnored(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	if err := exec.Command("git", "rev-parse", "--is-inside-work-tree").Run(); err != nil {
		t.Skip("not inside a git work tree")
	}
	out, err := exec.Command("git", "ls-files", "--others", "--ignored",
		"--exclude-standard", "--", "*.go").Output()
	if err != nil {
		t.Fatalf("git ls-files: %v", err)
	}
	if files := strings.TrimSpace(string(out)); files != "" {
		t.Errorf("git-ignored Go sources (a clean clone would lack them):\n%s", files)
	}
}
