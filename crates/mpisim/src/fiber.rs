//! Stackful coroutines: every simulated rank runs its body on a stack of its
//! own, on the thread that drives the engine.
//!
//! The engine is sequential, so a rank never needs a thread of its own: it
//! needs somewhere to keep its call stack while another rank runs. A
//! [`Fiber`] is that stack plus a saved stack pointer. [`Fiber::resume`]
//! switches to the fiber and returns when the body calls
//! [`Suspender::suspend`] or finishes; the two sides exchange data through a
//! mailbox, reached only by methods that borrow the side holding it mutably,
//! so no reference to it can be live across a switch.
//!
//! This module holds the crate's only `unsafe` code: the stack mappings, the
//! register switch, and the raw control block both sides share.

use std::any::Any;
use std::arch::naked_asm;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::{Mutex, PoisonError};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "mpisim runs ranks as coroutines and has a stack switch for x86_64 Linux only: \
     port `fiber::switch`, `fiber::trampoline` and the stack mapping to this target"
);

/// Usable bytes of one rank's stack.
const STACK_BYTES: usize = 512 * 1024;
/// The inaccessible page below every stack: an overflow faults on it instead
/// of writing over whatever is mapped below.
const GUARD_BYTES: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_STACK: i32 = 0x2_0000;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// One mapping of a guard page followed by [`STACK_BYTES`] of stack.
struct Stack {
    base: *mut u8,
}

// SAFETY: a `Stack` owns its mapping outright and holds no frame anybody
// will return to: only a finished fiber's stack leaves the fiber, so moving
// one to another thread (through the free list) hands over plain memory.
unsafe impl Send for Stack {}

impl Stack {
    fn map() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: an anonymous private mapping at an address of the kernel's
        // choosing aliases no existing memory; the result is checked below.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "cannot map a rank stack: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack { base };
        // SAFETY: the first page lies inside the mapping just made, which
        // nothing else references yet.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert!(
            rc == 0,
            "cannot protect a rank stack's guard page: {}",
            std::io::Error::last_os_error()
        );
        stack
    }

    /// One past the highest usable byte; 16-byte aligned.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(GUARD_BYTES + STACK_BYTES)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` and the length are exactly what `map` mapped, and
        // no frame on the stack is live (see `unsafe impl Send`).
        unsafe { munmap(self.base, GUARD_BYTES + STACK_BYTES) };
    }
}

/// Stacks of finished fibers, for the next fiber to start on. Every thread
/// of the process shares it, uncapped, so it grows to the largest number of
/// ranks ever live at once across all threads (worlds the campaign runner or
/// the server run side by side add up), and every page those ranks touched
/// stays resident for the life of the process. Mapping a fresh stack and
/// unmapping it costs more than running a small rank.
static FREE_STACKS: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

fn take_stack() -> Stack {
    // Every update of the list is one push or pop, so a poisoned lock still
    // guards a valid list.
    let spare = FREE_STACKS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop();
    spare.unwrap_or_else(Stack::map)
}

fn give_back(stack: Stack) {
    FREE_STACKS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(stack);
}

/// Save the callee-saved registers on the running stack, store its stack
/// pointer in `*save`, load `load` as the stack pointer and restore the
/// registers saved there: the return is to whoever last switched away from
/// `load` (or, for a new fiber, into [`trampoline`]).
///
/// # Safety
///
/// `save` must be valid for a write, and `load` must be a stack pointer
/// saved by this function (or laid out as [`Fiber::new`] lays it out) whose
/// stack is still mapped and has not been switched to since.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First code a new fiber runs: calls `r13(r12)`, i.e. `entry(control)`,
/// which never returns. Its unwind entry marks the return address undefined,
/// so a backtrace or an unwinder walking up from the body stops here.
///
/// # Safety
///
/// Only reachable from [`switch`] on a stack laid out by [`Fiber::new`].
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call r13",
        "ud2",
        ".cfi_endproc",
    )
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    /// Created or suspended: `fiber_sp` holds where to resume.
    Parked,
    /// Inside [`Fiber::resume`]: `caller_sp` holds where to go back to.
    Running,
    /// The body returned (or panicked); the stack holds no live frame.
    Done,
}

type Body<M> = Box<dyn FnOnce(Suspender<M>)>;

/// What both sides of a fiber share. Reached only through the raw pointer
/// in [`Fiber`] and [`Suspender`], one field access at a time, so the only
/// references into it are the short-lived ones the mailbox methods return.
struct Control<M> {
    fiber_sp: *mut u8,
    caller_sp: *mut u8,
    state: State,
    body: Option<Body<M>>,
    /// A panic that escaped the body, re-raised on the caller's stack.
    panic: Option<Box<dyn Any + Send>>,
    mailbox: M,
}

/// A body suspended on a stack of its own. Not `Send`: a fiber holds frames
/// that may point into the thread-locals of the thread that started it.
pub(crate) struct Fiber<M> {
    control: *mut Control<M>,
    /// `None` once the body finished and the stack went back to the list.
    stack: Option<Stack>,
}

/// The body's handle on its own fiber. Not `Send`, and only ever handed to
/// the body, so it is used on the fiber it belongs to.
pub(crate) struct Suspender<M> {
    control: *mut Control<M>,
}

impl<M: 'static> Fiber<M> {
    /// A fiber that runs `body` from its first [`Fiber::resume`].
    pub(crate) fn new(mailbox: M, body: impl FnOnce(Suspender<M>) + 'static) -> Fiber<M> {
        let stack = take_stack();
        let control = Box::into_raw(Box::new(Control {
            fiber_sp: ptr::null_mut(),
            caller_sp: ptr::null_mut(),
            state: State::Parked,
            body: Some(Box::new(body)),
            panic: None,
            mailbox,
        }));
        // The frame `switch` pops on the first resume: r15, r14, r13 (the
        // entry function), r12 (its argument), rbx, rbp (0, the end of a
        // frame-pointer chain), then the return address. `top` is 16-byte
        // aligned, so `trampoline` starts with an aligned stack and its call
        // leaves `entry` with the alignment the ABI promises a callee.
        let entry: extern "C" fn(*mut Control<M>) -> ! = entry::<M>;
        let frame: [usize; 7] = [
            0,
            0,
            entry as usize,
            control as usize,
            0,
            0,
            trampoline as *const () as usize,
        ];
        let sp = stack.top().wrapping_sub(size_of_val(&frame));
        // SAFETY: `sp .. top` is the highest 56 bytes of a mapping this
        // fiber owns and nothing else uses; `sp` is 8-byte aligned.
        unsafe {
            ptr::copy_nonoverlapping(frame.as_ptr(), sp.cast::<usize>(), frame.len());
            (*control).fiber_sp = sp;
        }
        Fiber {
            control,
            stack: Some(stack),
        }
    }

    /// Run the body until it suspends or finishes. A panic that escaped the
    /// body continues on this stack.
    pub(crate) fn resume(&mut self) {
        let c = self.control;
        // SAFETY: `control` stays allocated while `self` lives, and no
        // reference into it is live: the mailbox methods' borrows of `self`
        // have ended for this call to be made.
        unsafe {
            assert_eq!(
                (*c).state,
                State::Parked,
                "resumed a running or finished fiber"
            );
            (*c).state = State::Running;
            // Returns when the body suspends (state `Parked`) or `entry`
            // finishes (state `Done`); `fiber_sp` was saved by the last
            // switch away from the fiber or laid out by `new`.
            switch(&raw mut (*c).caller_sp, (*c).fiber_sp);
            if (*c).state != State::Done {
                return;
            }
        }
        give_back(self.stack.take().expect("a fiber finishes once"));
        // SAFETY: as above.
        if let Some(payload) = unsafe { (*c).panic.take() } {
            panic::resume_unwind(payload);
        }
    }

    /// Whether the body has finished.
    pub(crate) fn is_done(&self) -> bool {
        self.stack.is_none()
    }

    /// The mailbox, while the body is not running.
    pub(crate) fn mailbox(&mut self) -> &mut M {
        // SAFETY: the body is parked or done (asserted; only `resume` runs
        // it, and `resume` borrows `self` too), so nothing else accesses the
        // mailbox while this borrow of `self` lasts.
        unsafe {
            assert_ne!((*self.control).state, State::Running);
            &mut (*self.control).mailbox
        }
    }
}

impl<M> Drop for Fiber<M> {
    fn drop(&mut self) {
        // SAFETY: `control` is the pointer `Box::into_raw` returned.
        let started = unsafe { (*self.control).body.is_none() };
        if started && self.stack.is_some() {
            // Suspended mid-body: its frames may borrow from the control
            // block and may hold pinned values, so neither the stack nor the
            // control block may be reused. Leak both.
            std::mem::forget(self.stack.take());
            return;
        }
        if let Some(stack) = self.stack.take() {
            give_back(stack);
        }
        // SAFETY: the body never ran or has finished, so no frame refers to
        // the control block; it is freed exactly once, here.
        drop(unsafe { Box::from_raw(self.control) });
    }
}

impl<M> Suspender<M> {
    /// Switch back to the caller of [`Fiber::resume`]; returns at the next
    /// resume.
    pub(crate) fn suspend(&mut self) {
        let c = self.control;
        // SAFETY: the fiber is running (asserted), so this is its own stack
        // and `caller_sp` was saved by the `resume` that is running it; the
        // control block outlives the body, and no mailbox reference is live
        // across the switch because this method borrows `self` mutably.
        unsafe {
            assert_eq!((*c).state, State::Running, "suspended a parked fiber");
            (*c).state = State::Parked;
            switch(&raw mut (*c).fiber_sp, (*c).caller_sp);
        }
    }

    /// The mailbox, while the body runs.
    pub(crate) fn mailbox(&mut self) -> &mut M {
        // SAFETY: the fiber is running (asserted), so its `Fiber` is inside
        // `resume` and holds no mailbox borrow; this borrow of `self` ends
        // before the next `suspend`.
        unsafe {
            assert_eq!((*self.control).state, State::Running);
            &mut (*self.control).mailbox
        }
    }
}

/// Where a new fiber's stack begins: run the body, record how it ended and
/// switch back for the last time.
extern "C" fn entry<M>(control: *mut Control<M>) -> ! {
    run_body(control);
    let mut dead_sp = ptr::null_mut();
    // SAFETY: `caller_sp` was saved by the `resume` running this fiber.
    // Nothing on this stack needs dropping: `run_body` has returned.
    unsafe {
        (*control).state = State::Done;
        switch(&mut dead_sp, (*control).caller_sp);
    }
    unreachable!("a finished fiber is never resumed");
}

fn run_body<M>(control: *mut Control<M>) {
    // SAFETY: `control` outlives the fiber; the body is taken exactly once.
    let body = unsafe { (*control).body.take() }.expect("a fiber starts once");
    // A panic must not unwind into `trampoline`: catch it here and re-raise
    // it in `resume`, on the caller's stack.
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(Suspender { control }))) {
        // SAFETY: as above; the body, and every borrow it made, has ended.
        unsafe { (*control).panic = Some(payload) };
    }
}
