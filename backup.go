package ariesrh

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Backup takes an online, crash-consistent backup of a file-backed
// database into destDir: the engine is quiesced (log flushed, no
// concurrent mutations), and the log directory, pages and master record
// are copied.  The backup is a valid database directory — Open on it
// runs ordinary restart recovery, rolling back whatever was in flight at
// backup time.  In-memory databases (no Dir) cannot be backed up.
//
// Log copying is incremental across repeated backups into the same
// destDir: a destination file whose bytes already match the source is
// skipped, so segments shipped by a previous backup cost only a read
// (to verify) and no writes or syncs.  The verification is a byte
// comparison, not a name+size check — same size does not imply same
// content: torn-tail recovery can truncate a segment and later appends
// return it to a previously shipped size with different bytes.  Files
// the source no longer has
// (archived segments, superseded manifest generations) are deleted from
// the destination so the copy is exactly the source directory.
func (db *DB) Backup(destDir string) error {
	if db.sh != nil {
		return ErrSharded
	}
	if db.dir == "" {
		return fmt.Errorf("ariesrh: backup requires a file-backed database")
	}
	if err := os.MkdirAll(destDir, 0o755); err != nil {
		return err
	}
	return db.eng.Quiesce(func() error {
		for _, name := range []string{"pages.db", "master"} {
			if err := copyFile(filepath.Join(db.dir, name), filepath.Join(destDir, name)); err != nil {
				return fmt.Errorf("ariesrh: backup %s: %w", name, err)
			}
		}
		if err := syncDirCopy(filepath.Join(db.dir, "wal"), filepath.Join(destDir, "wal")); err != nil {
			return fmt.Errorf("ariesrh: backup wal: %w", err)
		}
		return nil
	})
}

// syncDirCopy mirrors the flat file directory src into dst, skipping
// files whose destination bytes already equal the source (verified by
// comparison — name and size alone cannot prove identity, see Backup)
// and deleting files absent from src.
func syncDirCopy(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	srcEntries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	srcNames := make(map[string]bool, len(srcEntries))
	for _, e := range srcEntries {
		if !e.Type().IsRegular() {
			continue
		}
		srcNames[e.Name()] = true
		info, err := e.Info()
		if err != nil {
			return err
		}
		srcPath := filepath.Join(src, e.Name())
		dstPath := filepath.Join(dst, e.Name())
		if dstInfo, err := os.Stat(dstPath); err == nil &&
			dstInfo.Mode().IsRegular() && dstInfo.Size() == info.Size() {
			same, err := filesEqual(srcPath, dstPath)
			if err != nil {
				return err
			}
			if same {
				continue // already shipped, verified byte-for-byte
			}
		}
		if err := copyFile(srcPath, dstPath); err != nil {
			return err
		}
	}
	dstEntries, err := os.ReadDir(dst)
	if err != nil {
		return err
	}
	for _, e := range dstEntries {
		if e.Type().IsRegular() && !srcNames[e.Name()] {
			if err := os.Remove(filepath.Join(dst, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// filesEqual reports whether the two files hold identical bytes.  The
// caller has already matched their sizes.
func filesEqual(a, b string) (bool, error) {
	fa, err := os.Open(a)
	if err != nil {
		return false, err
	}
	defer fa.Close()
	fb, err := os.Open(b)
	if err != nil {
		return false, err
	}
	defer fb.Close()
	bufA := make([]byte, 64<<10)
	bufB := make([]byte, 64<<10)
	for {
		na, errA := io.ReadFull(fa, bufA)
		nb, errB := io.ReadFull(fb, bufB)
		if na != nb || !bytes.Equal(bufA[:na], bufB[:nb]) {
			return false, nil
		}
		endA := errA == io.EOF || errA == io.ErrUnexpectedEOF
		endB := errB == io.EOF || errB == io.ErrUnexpectedEOF
		if endA || endB {
			return endA && endB && na == nb, nil
		}
		if errA != nil {
			return false, errA
		}
		if errB != nil {
			return false, errB
		}
	}
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
