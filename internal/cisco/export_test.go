package cisco

// The reference printer and parser, for the external fuzz targets.
var (
	ReferencePrint = refPrint
	ReferenceParse = refParse
)
