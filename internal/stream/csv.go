package stream

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"rcep/internal/core/event"
)

// CSV observation interchange: one observation per line, as
// "reader,object,seconds" with float seconds on the virtual timeline.
// Blank lines and '#' comments are skipped.

// ReadCSV streams observations from r into sink, returning the count.
func ReadCSV(r io.Reader, sink func(event.Observation) error) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	n, lineNo := 0, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		obs, err := ParseCSVLine(line)
		if err != nil {
			return n, fmt.Errorf("stream: line %d: %w", lineNo, err)
		}
		if err := sink(obs); err != nil {
			return n, err
		}
		n++
	}
	return n, sc.Err()
}

// ParseCSVLine parses one "reader,object,seconds" line.
func ParseCSVLine(line string) (event.Observation, error) {
	parts := strings.Split(line, ",")
	if len(parts) != 3 {
		return event.Observation{}, fmt.Errorf("want reader,object,seconds; got %q", line)
	}
	secs, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil {
		return event.Observation{}, fmt.Errorf("bad timestamp %q", parts[2])
	}
	return event.Observation{
		Reader: strings.TrimSpace(parts[0]),
		Object: strings.TrimSpace(parts[1]),
		At:     event.Time(secs * float64(time.Second)),
	}, nil
}
