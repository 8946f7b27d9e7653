package store

import (
	"bdi/internal/rdf"
	"bdi/internal/rdf/turtle"
)

// DumpTriG serializes the entire store as a TriG document.
func (s *Store) DumpTriG(prefixes *rdf.PrefixMap) string {
	ser := turtle.NewSerializer()
	if prefixes != nil {
		ser.Prefixes = prefixes
	}
	return ser.SerializeQuads(s.Quads())
}
