//! Fixture: `unsafe` outside test code (lines 4 and 9); the SAFETY
//! comment on the second fn cannot excuse it.

pub unsafe fn read(ptr: *const u8) -> u8 {
    *ptr
}

// SAFETY: looks justified, but library code may not be unsafe at all.
pub unsafe fn annotated(ptr: *const u8) -> u8 {
    *ptr
}
