package analyze

import (
	"bytes"
	"encoding/json"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

func TestPrintVersion(t *testing.T) {
	var buf bytes.Buffer
	PrintVersion(&buf, "softcache-analyze")
	// cmd/go parses this line to extract a build ID for its vet result
	// cache; the x/tools wire format is the one it accepts.
	re := regexp.MustCompile(`^softcache-analyze version devel comments-go-here buildID=[0-9a-f]+\n$`)
	if !re.MatchString(buf.String()) {
		t.Fatalf("version line %q does not match the vettool wire format", buf.String())
	}
}

func TestPrintFlags(t *testing.T) {
	var buf bytes.Buffer
	PrintFlags(&buf)
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(buf.Bytes(), &flags); err != nil {
		t.Fatalf("-flags output is not a JSON flag list: %v\n%s", err, buf.String())
	}
	// go vet forwards only what -flags lists: the aggregate JSON switch
	// and the context-lines count. Every analyzer always runs.
	var names []string
	for _, f := range flags {
		names = append(names, f.Name)
	}
	if strings.Join(names, " ") != "json c" {
		t.Fatalf("-flags lists %v, want [json c]", names)
	}
}

// diagFixture builds a fileset with one fake file and two positioned
// diagnostics for the writer tests.
func diagFixture() (*token.FileSet, []Diagnostic) {
	fset := token.NewFileSet()
	f := fset.AddFile("pkg/file.go", -1, 1000)
	return fset, []Diagnostic{
		{Pos: f.Pos(10), Analyzer: "stub", Message: "first"},
		{Pos: f.Pos(20), Analyzer: "stub", Message: "second"},
	}
}

func TestWriteVetJSONShape(t *testing.T) {
	fset, diags := diagFixture()
	var buf bytes.Buffer
	if err := WriteVetJSON(&buf, fset, "softcache/internal/x", diags); err != nil {
		t.Fatal(err)
	}
	var agg map[string]map[string][]struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(buf.Bytes(), &agg); err != nil {
		t.Fatalf("vet JSON: %v\n%s", err, buf.String())
	}
	byAnalyzer, ok := agg["softcache/internal/x"]
	if !ok {
		t.Fatalf("missing package key: %s", buf.String())
	}
	if len(byAnalyzer["stub"]) != 2 {
		t.Fatalf("want 2 stub findings, got %v", byAnalyzer)
	}
}
