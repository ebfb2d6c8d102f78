//! Byte-level helpers shared by the WAL and snapshot codecs: a bounds-checked
//! cursor (every read is total — truncated input yields `None`, never a
//! panic). Both formats checksum with [`xdx_xmltree::fnv1a`]: their integrity
//! checks guard against torn writes and bit rot, not adversaries with write
//! access to the data directory, so a fast non-cryptographic checksum is the
//! right tool.

/// A forward-only reader over a byte slice.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Option<u16> {
        let b = self.take(2)?;
        Some(u16::from_be_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Some(u64::from_be_bytes(a))
    }

    /// A length-prefixed UTF-8 string (`len:u32` then the bytes).
    pub(crate) fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&u32::try_from(s.len()).expect("string length").to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_is_total_on_truncated_input() {
        let mut c = Cursor::new(&[1, 2, 3]);
        assert_eq!(c.u16(), Some(0x0102));
        assert_eq!(c.u32(), None, "not enough bytes left");
        assert_eq!(c.u8(), Some(3), "failed reads consume nothing");
        assert!(c.is_empty());
    }
}
