package unusedexport

import "testing"

func TestHelper(t *testing.T) { Helper() }
