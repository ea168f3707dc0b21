package sweep

// Retune is retune, the splice derive builds a derived cell with, for
// the external tests to drive.
var Retune = retune
