package har

// Documents the external fuzz test seeds its corpus with.
var (
	StreamErrorCases  = streamErrorCases
	ChromeDevToolsHAR = chromeDevToolsHAR
)
