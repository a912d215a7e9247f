package federation

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"fedfteds/internal/core"
)

// configTableHeader opens DESIGN.md's table of how each runtime reads each
// core.Config field.
const configTableHeader = "| field | `core.Runner` | `federation.Serve` |"

// TestConfigFieldReadings holds DESIGN.md's table of core.Config readings to
// the struct: every field has exactly one row, every row names a field, and
// each runtime's reading is honoured, refused or bit-irrelevant. A field
// added to core.Config without a row fails here, before either runtime can
// drop it silently.
func TestConfigFieldReadings(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), configTableHeader+"\n")
	if !ok {
		t.Fatalf("DESIGN.md has no table headed %q", configTableHeader)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(table, "\n")[1:] { // [0] is the separator row
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) != 3 {
			t.Fatalf("row %q: want a field and two readings", line)
		}
		field := strings.Trim(cells[0], "`")
		if rows[field] {
			t.Errorf("field %s has two rows", field)
		}
		rows[field] = true
		for i, runtime := range []string{"Runner", "Serve"} {
			reading := cells[1+i]
			if !strings.HasPrefix(reading, "honoured") && !strings.HasPrefix(reading, "refused") &&
				!strings.HasPrefix(reading, "bit-irrelevant") {
				t.Errorf("%s under %s: reading %q is not honoured, refused or bit-irrelevant", field, runtime, reading)
			}
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(core.Config{})) {
		if !rows[f.Name] {
			t.Errorf("core.Config.%s has no row in DESIGN.md's table of field readings", f.Name)
		}
		delete(rows, f.Name)
	}
	for field := range rows {
		t.Errorf("DESIGN.md's table of field readings names %s, which core.Config does not have", field)
	}
}
