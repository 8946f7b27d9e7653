package turtle

import (
	"strings"
	"testing"

	"bdi/internal/rdf"
)

func TestSerializerUngrouped(t *testing.T) {
	ser := NewSerializer()
	ser.GroupBySubject = false
	out := ser.SerializeQuads([]rdf.Quad{
		rdf.Q("http://ex/s", "http://ex/p", "http://ex/o", ""),
		rdf.Q("http://ex/s", "http://ex/q", "http://ex/o2", ""),
	})
	if strings.Contains(out, ";") {
		t.Errorf("ungrouped output should not contain ';': %q", out)
	}
}
