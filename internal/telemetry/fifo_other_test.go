//go:build !unix

package telemetry

import "errors"

func mkfifo(string) error { return errors.ErrUnsupported }
