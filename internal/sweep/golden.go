package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
)

// goldenHeader is the first line of a golden table of results: the
// address version (inputPrefix) the results were pinned under.
func goldenHeader() []byte {
	return []byte("# results of address " + strings.TrimSpace(inputPrefix) + "\n")
}

// Golden checks a table of pinned results against the golden file at
// path and returns the table the file pins. The file's first line names
// the address version; a file pinned under another one is an error.
//
// With update the file is rewritten to table first, unless the file
// pins a different table under the current address version. A result
// that moves while its address stays would leave every persisted cache
// — results and witnesses alike — serving what the old code computed,
// so the change has to bump inputPrefix, which makes cache.Open drop
// the old entries.
func Golden(path string, table []byte, update bool) ([]byte, error) {
	header := goldenHeader()
	raw, err := os.ReadFile(path)
	if err != nil && !(update && errors.Is(err, fs.ErrNotExist)) {
		return nil, fmt.Errorf("read golden (regenerate with -update): %w", err)
	}
	pinned, current := bytes.CutPrefix(raw, header)
	if update {
		if current && !bytes.Equal(pinned, table) {
			return nil, fmt.Errorf("%s: refusing -update: the results changed while the address version is still %q; bump inputPrefix in internal/sweep so no cache keeps serving the old results", path, strings.TrimSpace(inputPrefix))
		}
		if err := os.WriteFile(path, append(header, table...), 0o644); err != nil {
			return nil, err
		}
		return table, nil
	}
	if !current {
		return nil, fmt.Errorf("%s does not pin results of address %q (regenerate with -update)", path, strings.TrimSpace(inputPrefix))
	}
	return pinned, nil
}
