//! The guest program loader.
//!
//! Loads an [`Image`] into a pipeline and assembles the MLR *special
//! header* (Figure 3 of the paper) in guest memory, so a program (or the
//! loader-provided prologue) can hand it to the Memory Layout
//! Randomization module with `MLR_EXEC_HDR`/`MLR_PI_RAND` CHECKs.

use rse_isa::image::ExecHeader;
use rse_isa::Image;
use rse_mem::MemorySystem;
use rse_pipeline::Pipeline;

/// Guest address at which the loader assembles the special header.
/// It sits in its own page below the shared-library region, away from
/// program segments.
pub const HEADER_ADDR: u32 = 0x0EFF_0000;

/// Writes `header` into guest memory at [`HEADER_ADDR`].
pub fn write_exec_header(mem: &mut MemorySystem, header: &ExecHeader) {
    for (i, w) in header.to_words().iter().enumerate() {
        mem.memory.write_u32(HEADER_ADDR + 4 * i as u32, *w);
    }
}

/// Loads `image` into `cpu` and assembles its special header in guest
/// memory. Returns the header that was written.
pub fn load_process(cpu: &mut Pipeline, image: &Image) -> ExecHeader {
    cpu.load_image(image);
    let header = image.exec_header();
    write_exec_header(cpu.mem_mut(), &header);
    header
}

/// Per-thread stack size used by the guest OS when spawning threads.
pub const THREAD_STACK_BYTES: u32 = 64 * 1024;

/// Computes the initial stack pointer for thread `tid` below `stack_base`
/// (thread 0 gets the top; later threads stack downward).
pub fn thread_stack_pointer(stack_base: u32, tid: usize) -> u32 {
    stack_base - (tid as u32) * THREAD_STACK_BYTES - 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_isa::asm::assemble;
    use rse_isa::image::HEADER_WORDS;
    use rse_isa::layout;
    use rse_mem::MemConfig;
    use rse_pipeline::PipelineConfig;

    #[test]
    fn header_lands_in_guest_memory() {
        let image = assemble("main: halt\n.data\nx: .word 7\n").unwrap();
        let mut cpu = Pipeline::new(
            PipelineConfig::default(),
            MemorySystem::new(MemConfig::baseline()),
        );
        let header = load_process(&mut cpu, &image);
        assert_eq!(
            cpu.mem().memory.read_u32(HEADER_ADDR),
            rse_isa::image::HEADER_MAGIC
        );
        let mut words = [0u32; HEADER_WORDS];
        for (i, w) in words.iter_mut().enumerate() {
            *w = cpu.mem().memory.read_u32(HEADER_ADDR + 4 * i as u32);
        }
        assert_eq!(ExecHeader::from_words(&words).unwrap(), header);
        assert_eq!(header.code_start, image.text_base);
        assert_eq!(header.data_len, image.data.len() as u32);
    }

    #[test]
    fn thread_stacks_do_not_overlap() {
        let base = layout::STACK_BASE;
        let s0 = thread_stack_pointer(base, 0);
        let s1 = thread_stack_pointer(base, 1);
        assert!(s0 > s1);
        assert!(s0 - s1 >= THREAD_STACK_BYTES);
    }
}
