package rdf

// Well-known namespaces used by the BDI ontology and its vocabularies.
const (
	// NSRDF is the RDF namespace.
	NSRDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	// NSRDFS is the RDF Schema namespace.
	NSRDFS = "http://www.w3.org/2000/01/rdf-schema#"
	// NSOWL is the OWL namespace.
	NSOWL = "http://www.w3.org/2002/07/owl#"
	// NSXSD is the XML Schema datatypes namespace.
	NSXSD = "http://www.w3.org/2001/XMLSchema#"
	// NSVOAF is the Vocabulary of a Friend namespace used by the paper's
	// vocabulary declarations.
	NSVOAF = "http://purl.org/vocommons/voaf#"
	// NSVANN is the vocabulary annotation namespace.
	NSVANN = "http://purl.org/vocab/vann/"
	// NSDUV is the W3C Dataset Usage Vocabulary namespace, reused by the
	// SUPERSEDE case study for feedback elements.
	NSDUV = "https://www.w3.org/TR/vocab-duv#"
	// NSDCT is the Dublin Core terms namespace.
	NSDCT = "http://purl.org/dc/terms/"
	// NSSchema is the schema.org namespace (prefix sc in the paper).
	NSSchema = "http://schema.org/"
)

// RDF vocabulary terms.
var (
	RDFType       = IRI(NSRDF + "type")
	RDFProperty   = IRI(NSRDF + "Property")
	RDFLangString = IRI(NSRDF + "langString")
	RDFNil        = IRI(NSRDF + "nil")
	RDFFirst      = IRI(NSRDF + "first")
	RDFRest       = IRI(NSRDF + "rest")
)

// RDFS vocabulary terms.
var (
	RDFSClass         = IRI(NSRDFS + "Class")
	RDFSResource      = IRI(NSRDFS + "Resource")
	RDFSLiteral       = IRI(NSRDFS + "Literal")
	RDFSDatatype      = IRI(NSRDFS + "Datatype")
	RDFSSubClassOf    = IRI(NSRDFS + "subClassOf")
	RDFSSubPropertyOf = IRI(NSRDFS + "subPropertyOf")
	RDFSDomain        = IRI(NSRDFS + "domain")
	RDFSRange         = IRI(NSRDFS + "range")
	RDFSLabel         = IRI(NSRDFS + "label")
	RDFSComment       = IRI(NSRDFS + "comment")
	RDFSIsDefinedBy   = IRI(NSRDFS + "isDefinedBy")
	RDFSSeeAlso       = IRI(NSRDFS + "seeAlso")
)

// OWL vocabulary terms.
var (
	OWLSameAs             = IRI(NSOWL + "sameAs")
	OWLClass              = IRI(NSOWL + "Class")
	OWLObjectProperty     = IRI(NSOWL + "ObjectProperty")
	OWLDatatypeProperty   = IRI(NSOWL + "DatatypeProperty")
	OWLEquivalentClass    = IRI(NSOWL + "equivalentClass")
	OWLEquivalentProperty = IRI(NSOWL + "equivalentProperty")
)

// XSD datatypes.
var (
	XSDString             = IRI(NSXSD + "string")
	XSDBoolean            = IRI(NSXSD + "boolean")
	XSDInteger            = IRI(NSXSD + "integer")
	XSDInt                = IRI(NSXSD + "int")
	XSDLong               = IRI(NSXSD + "long")
	XSDShort              = IRI(NSXSD + "short")
	XSDByte               = IRI(NSXSD + "byte")
	XSDDecimal            = IRI(NSXSD + "decimal")
	XSDFloat              = IRI(NSXSD + "float")
	XSDDouble             = IRI(NSXSD + "double")
	XSDDateTime           = IRI(NSXSD + "dateTime")
	XSDDate               = IRI(NSXSD + "date")
	XSDTime               = IRI(NSXSD + "time")
	XSDAnyURI             = IRI(NSXSD + "anyURI")
	XSDNonNegativeInteger = IRI(NSXSD + "nonNegativeInteger")
	XSDPositiveInteger    = IRI(NSXSD + "positiveInteger")
	XSDDuration           = IRI(NSXSD + "duration")
)

// VOAF / VANN vocabulary terms used by the metadata models in Codes 6 and 7.
var (
	VOAFVocabulary               = IRI(NSVOAF + "Vocabulary")
	VANNPreferredNamespacePrefix = IRI(NSVANN + "preferredNamespacePrefix")
	VANNPreferredNamespaceURI    = IRI(NSVANN + "preferredNamespaceUri")
)

// Schema.org terms used by the running example.
var (
	SchemaIdentifier          = IRI(NSSchema + "identifier")
	SchemaSoftwareApplication = IRI(NSSchema + "SoftwareApplication")
)
