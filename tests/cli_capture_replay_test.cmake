# Pins a real pipeline capture and replays it on the golden model:
# generate -> pim-run --dump-trace (in process, then isolated on one and
# two workers) -> digest check -> pima_fuzz --replay.
# The digest is the capture's SHA-256; a change that moves any captured
# command (a model-output change) must re-record it here.
set(EXPECTED_SHA256
    b2074c7ce46e0a2da6ed2d4bc319e9757d72fd99687e61f4ffd3b58621a11f31)
file(MAKE_DIRECTORY ${WORK})
execute_process(
  COMMAND ${CLI} generate --genome ${WORK}/g.fa --reads ${WORK}/r.fa
          --length 600 --coverage 6
  RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "generate failed: ${rc1}")
endif()
execute_process(
  COMMAND ${CLI} pim-run --reads ${WORK}/r.fa --k 15 --shards 4
          --dump-trace ${WORK}/cap.aap
  RESULT_VARIABLE rc2 OUTPUT_VARIABLE out2 ERROR_VARIABLE err2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "pim-run failed: ${rc2}\n${out2}${err2}")
endif()
file(SHA256 ${WORK}/cap.aap digest)
if(NOT digest STREQUAL EXPECTED_SHA256)
  message(FATAL_ERROR "capture digest changed: got ${digest}, "
                      "expected ${EXPECTED_SHA256}")
endif()
# The isolated transport fetches the same capture from its pima_devd
# workers one sub-array per request: the bytes must not move, and no
# worker may fail or the run fall back to in-process shards on the way.
foreach(devices 1 2)
  execute_process(
    COMMAND ${CLI} pim-run --reads ${WORK}/r.fa --k 15 --shards 4
            --devices ${devices} --isolate
            --dump-trace ${WORK}/cap_isolated${devices}.aap
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "isolated pim-run (--devices ${devices}) failed: "
                        "${rc}\n${out}${err}")
  endif()
  if(err MATCHES "worker\\.failed|pool\\.fallback")
    message(FATAL_ERROR "isolated pim-run (--devices ${devices}) lost a "
                        "worker:\n${err}")
  endif()
  file(SHA256 ${WORK}/cap_isolated${devices}.aap digest)
  if(NOT digest STREQUAL EXPECTED_SHA256)
    message(FATAL_ERROR "isolated capture (--devices ${devices}) digest "
                        "${digest}, expected ${EXPECTED_SHA256}")
  endif()
endforeach()
execute_process(
  COMMAND ${FUZZ} --replay ${WORK}/cap.aap --rows 512 --columns 256
  RESULT_VARIABLE rc3 OUTPUT_VARIABLE out3 ERROR_VARIABLE err3)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR "golden replay failed: ${rc3}\n${out3}${err3}")
endif()
