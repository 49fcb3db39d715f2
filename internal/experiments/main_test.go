package experiments

import (
	"testing"

	"lsvd/internal/testleak"
)

func TestMain(m *testing.M) { testleak.Main(m) }
