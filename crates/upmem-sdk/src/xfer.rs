//! Transfer buffers: the memory an application fills before a push or a
//! broadcast.

use std::borrow::Cow;

use vpim::GuestBuf;

use crate::error::SdkError;

/// A transfer buffer from
/// [`DpuSet::alloc_xfer_buf`](crate::DpuSet::alloc_xfer_buf) and its
/// siblings.
///
/// On a VM set it lives in the guest's RAM, so
/// [`push_bufs_to_heap`](crate::DpuSet::push_bufs_to_heap) and
/// [`broadcast_to_heap`](crate::DpuSet::broadcast_to_heap) hand the
/// device the buffer's own pages and no byte is copied before the rank
/// write. On a native set, or when the guest cannot hold it, it is host
/// memory, which a VM push copies through fresh guest pages exactly like a
/// `Vec`. The bytes a push lands and every figure it reports do not depend
/// on which kind a buffer is. A fresh buffer reads as zeros.
#[derive(Debug)]
pub struct XferBuf(Kind);

#[derive(Debug)]
enum Kind {
    Host(Vec<u8>),
    Guest(GuestBuf),
}

impl XferBuf {
    pub(crate) fn host(len: usize) -> XferBuf {
        XferBuf(Kind::Host(vec![0; len]))
    }

    pub(crate) fn guest(buf: GuestBuf) -> XferBuf {
        XferBuf(Kind::Guest(buf))
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.0 {
            Kind::Host(v) => v.len(),
            Kind::Guest(g) => g.len(),
        }
    }

    /// Whether the buffer holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the buffer lives in guest RAM (pushed without a copy).
    #[must_use]
    pub fn is_guest(&self) -> bool {
        matches!(self.0, Kind::Guest(_))
    }

    fn check(&self, offset: usize, len: usize) -> Result<(), SdkError> {
        match offset.checked_add(len) {
            Some(end) if end <= self.len() => Ok(()),
            _ => Err(SdkError::BufferRange { offset, len, size: self.len() }),
        }
    }

    /// Copies `data` into the buffer at `offset`.
    ///
    /// # Errors
    ///
    /// [`SdkError::BufferRange`] when the range leaves the buffer.
    pub fn write(&mut self, offset: usize, data: &[u8]) -> Result<(), SdkError> {
        self.check(offset, data.len())?;
        match &mut self.0 {
            Kind::Host(v) => v[offset..offset + data.len()].copy_from_slice(data),
            Kind::Guest(g) => g.write(offset, data)?,
        }
        Ok(())
    }

    /// Copies `dst.len()` bytes out of the buffer at `offset`.
    ///
    /// # Errors
    ///
    /// [`SdkError::BufferRange`] when the range leaves the buffer.
    pub fn read(&self, offset: usize, dst: &mut [u8]) -> Result<(), SdkError> {
        self.check(offset, dst.len())?;
        match &self.0 {
            Kind::Host(v) => dst.copy_from_slice(&v[offset..offset + dst.len()]),
            Kind::Guest(g) => g.read(offset, dst)?,
        }
        Ok(())
    }

    /// The whole buffer as a fresh `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.bytes().into_owned()
    }

    /// The buffer's bytes: borrowed from host memory, copied out of guest
    /// RAM.
    pub(crate) fn bytes(&self) -> Cow<'_, [u8]> {
        match &self.0 {
            Kind::Host(v) => Cow::Borrowed(v),
            Kind::Guest(g) => Cow::Owned(g.to_vec()),
        }
    }

    /// The guest buffer, if this is one.
    pub(crate) fn as_guest(&self) -> Option<&GuestBuf> {
        match &self.0 {
            Kind::Guest(g) => Some(g),
            Kind::Host(_) => None,
        }
    }
}
