package cisco

// The reference printer and parser, for the external fuzz targets.
var (
	ReferencePrint = refPrint
	ReferenceParse = refParse
)

// QuotedASPathConfig exposes the route-map whose as-path regex holds a
// quote.
const QuotedASPathConfig = quotedASPathConfig
