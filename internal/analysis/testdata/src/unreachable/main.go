// Command fixture is the only root of the unreachable check's fixture.
package main

import (
	"errors"
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Box[int]{}.Get(), lib.Stale())
	fmt.Println(errors.Is(lib.Fail(), lib.ErrBase), lib.Level(0))
}
