# Drives pima_asm's resilience surface end to end and pins the documented
# exit codes (DESIGN.md §10): 0 ok, 2 usage, 3 malformed input, 4 I/O,
# 5 corrupt/incompatible checkpoint. Any other code on these paths is a
# regression — undocumented exit codes fail the run. pima_fuzz's usage
# errors exit 2 as well.
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(expect_exit code)
  # remaining args: the command line
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${code})
    message(FATAL_ERROR "expected exit ${code}, got '${rc}' from: ${ARGN}\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
endfunction()

# A malformed or out-of-range numeric flag -> 3, and the message names the
# flag and its accepted range.
function(expect_flag_rejected flag)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc TIMEOUT 60
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 3 OR NOT err MATCHES "--${flag} must be [^\n]*(in [[(]|[<>]=? )")
    message(FATAL_ERROR "expected exit 3 naming --${flag} and its range, "
                        "got '${rc}' from: ${ARGN}\nstderr: ${err}")
  endif()
endfunction()

# Usage errors -> 2.
expect_exit(2 ${CLI})
expect_exit(2 ${CLI} pim-run)
expect_exit(2 ${FUZZ} --ops abc)
expect_exit(2 ${FUZZ} --devices x)

# Missing input file -> 4 (I/O).
expect_exit(4 ${CLI} pim-run --reads ${WORK}/nonexistent.fa)

# Malformed FASTA -> 3 (input format), for several corruption shapes.
file(WRITE ${WORK}/truncated.fa ">only_a_header\n")
expect_exit(3 ${CLI} pim-run --reads ${WORK}/truncated.fa)
file(WRITE ${WORK}/garbage.fa ">r\nAC!GT\n")
expect_exit(3 ${CLI} pim-run --reads ${WORK}/garbage.fa)
file(WRITE ${WORK}/headerless.fa "ACGTACGT\n")
expect_exit(3 ${CLI} pim-run --reads ${WORK}/headerless.fa)
file(WRITE ${WORK}/empty.fa "")
expect_exit(3 ${CLI} pim-run --reads ${WORK}/empty.fa)

# A real workload for the checkpoint flow.
expect_exit(0 ${CLI} generate --genome ${WORK}/g.fa --reads ${WORK}/r.fa
            --length 3000 --coverage 8)

# Numeric flags of every subcommand parse strictly -> 3.
expect_flag_rejected(coverage ${CLI} generate --genome ${WORK}/g2.fa
                     --reads ${WORK}/r2.fa --coverage abc)
# generate's open ranges and the read/genome length relation.
expect_flag_rejected(gc ${CLI} generate --genome ${WORK}/g2.fa
                     --reads ${WORK}/r2.fa --gc 0)
expect_flag_rejected(gc ${CLI} generate --genome ${WORK}/g2.fa
                     --reads ${WORK}/r2.fa --gc 1)
expect_flag_rejected(coverage ${CLI} generate --genome ${WORK}/g2.fa
                     --reads ${WORK}/r2.fa --coverage 0)
expect_flag_rejected(read-length ${CLI} generate --genome ${WORK}/g2.fa
                     --reads ${WORK}/r2.fa --length 50)
expect_flag_rejected(min-freq ${CLI} assemble --reads ${WORK}/r.fa
                     --min-freq abc)
expect_flag_rejected(k ${CLI} pim-run --reads ${WORK}/r.fa --k abc)
expect_flag_rejected(k ${CLI} pim-run --reads ${WORK}/r.fa --k 40)
expect_flag_rejected(rows ${CLI} pim-run --reads ${WORK}/r.fa --rows 3)
expect_flag_rejected(max-retries ${CLI} pim-run --reads ${WORK}/r.fa
                     --max-retries -1)
expect_flag_rejected(fault-variation ${CLI} pim-run --reads ${WORK}/r.fa
                     --fault-variation -3)
# The run's one engine has --devices x --threads channel threads: a
# product above 1024 -> 3 naming both flags, before any engine exists.
# 2 x 513 is the smallest product past the bound.
execute_process(COMMAND ${CLI} pim-run --reads ${WORK}/r.fa --devices 2
                        --threads 513
                RESULT_VARIABLE rc TIMEOUT 60
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 3 OR NOT err MATCHES "--devices x --threads must be <= 1024")
  message(FATAL_ERROR "expected exit 3 naming --devices and --threads, "
                      "got '${rc}'\nstderr: ${err}")
endif()
expect_flag_rejected(k ${CLI} spectrum --reads ${WORK}/r.fa --k abc)
expect_flag_rejected(k ${CLI} project --k 100)
expect_flag_rejected(rows ${CLI} serve --state-dir ${WORK}/serve --rows 16)
expect_flag_rejected(k ${CLI} submit --socket ${WORK}/no.sock
                     --reads ${WORK}/r.fa --k 40)
expect_flag_rejected(priority ${CLI} submit --socket ${WORK}/no.sock
                     --reads ${WORK}/r.fa --priority abc)

# A FASTA output that cannot be written -> 4 (I/O), not a reported success.
expect_exit(4 ${CMAKE_COMMAND} -E env
            PIMA_IOFAULT=write@artifact:nth=1:errno=ENOSPC
            ${CLI} assemble --reads ${WORK}/r.fa --k 15
            --out ${WORK}/contigs.fa)
# The same for the assembly graph.
expect_exit(4 ${CMAKE_COMMAND} -E env
            PIMA_IOFAULT=write@artifact:nth=1:errno=ENOSPC
            ${CLI} assemble --reads ${WORK}/r.fa --k 15
            --gfa ${WORK}/graph.gfa)
# An output path that is not a regular file (here a FIFO) is refused -> 4,
# and stays what it was.
execute_process(COMMAND mkfifo ${WORK}/fifo.fa RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mkfifo failed: ${rc}")
endif()
expect_exit(4 ${CLI} assemble --reads ${WORK}/r.fa --k 15
            --out ${WORK}/fifo.fa)
execute_process(COMMAND test -p ${WORK}/fifo.fa RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--out replaced the FIFO")
endif()

# A fault plan naming an op no wrapped call site performs (recv, unlink)
# is malformed input -> 3, not an armed plan that never fires.
expect_exit(3 ${CMAKE_COMMAND} -E env
            PIMA_IOFAULT=recv:always:errno=EIO
            ${CLI} generate --genome ${WORK}/g3.fa --reads ${WORK}/r3.fa
            --length 3000 --coverage 8)
expect_exit(3 ${CMAKE_COMMAND} -E env
            PIMA_IOFAULT=unlink:nth=1:errno=EIO
            ${CLI} generate --genome ${WORK}/g3.fa --reads ${WORK}/r3.fa
            --length 3000 --coverage 8)

# --resume without --checkpoint-dir -> 2 (usage).
expect_exit(2 ${CLI} pim-run --reads ${WORK}/r.fa --k 15 --resume)

# Checkpointed run, then resume (skips all three stages) -> 0 both times.
expect_exit(0 ${CLI} pim-run --reads ${WORK}/r.fa --k 15 --threads 2
            --stall-timeout 30000 --checkpoint-dir ${WORK}/ckpt)
if(NOT EXISTS ${WORK}/ckpt/pipeline.ckpt)
  message(FATAL_ERROR "checkpoint file not written")
endif()
expect_exit(0 ${CLI} pim-run --reads ${WORK}/r.fa --k 15 --threads 1
            --checkpoint-dir ${WORK}/ckpt --resume)

# Resume under a different k -> 5 (incompatible checkpoint).
expect_exit(5 ${CLI} pim-run --reads ${WORK}/r.fa --k 17
            --checkpoint-dir ${WORK}/ckpt --resume)

# Sharded checkpointed run, resumed at a different thread count and at a
# different --devices -> 0 both times: the fingerprint pins neither, and
# the resumed stdout equals the uninterrupted run's.
execute_process(COMMAND ${CLI} pim-run --reads ${WORK}/r.fa --k 15
                --threads 2 --devices 4 --checkpoint-dir ${WORK}/ckpt_dev
                RESULT_VARIABLE rc OUTPUT_VARIABLE uninterrupted
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharded checkpointed run exited '${rc}'\n${err}")
endif()
expect_exit(0 ${CLI} pim-run --reads ${WORK}/r.fa --k 15 --threads 1
            --devices 4 --checkpoint-dir ${WORK}/ckpt_dev --resume)
execute_process(COMMAND ${CLI} pim-run --reads ${WORK}/r.fa --k 15
                --checkpoint-dir ${WORK}/ckpt_dev --resume
                RESULT_VARIABLE rc OUTPUT_VARIABLE resumed ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT resumed STREQUAL uninterrupted)
  message(FATAL_ERROR "resume at --devices 1 exited '${rc}' or its stdout "
                      "differs\nresumed:\n${resumed}\nuninterrupted:\n"
                      "${uninterrupted}\nstderr: ${err}")
endif()

# Damaged checkpoint -> 5. Trailing garbage breaks the header's payload
# size; overwriting breaks the magic. (Exhaustive single-byte-flip coverage
# lives in test_checkpoint.cpp.)
file(APPEND ${WORK}/ckpt/pipeline.ckpt "garbage")
expect_exit(5 ${CLI} pim-run --reads ${WORK}/r.fa --k 15
            --checkpoint-dir ${WORK}/ckpt --resume)
file(WRITE ${WORK}/ckpt/pipeline.ckpt "this is not a checkpoint")
expect_exit(5 ${CLI} pim-run --reads ${WORK}/r.fa --k 15
            --checkpoint-dir ${WORK}/ckpt --resume)

# Resume combined with fault injection -> 1 (documented unsupported).
expect_exit(1 ${CLI} pim-run --reads ${WORK}/r.fa --k 15
            --checkpoint-dir ${WORK}/ckpt2 --resume --fault-variation 0.10)
