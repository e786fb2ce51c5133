# End-to-end check of the `wcds` CLI: generate a deployment, build its
# backbone with both algorithms in both modes, and build a two-cluster
# (disconnected) deployment in protocol mode.  Every build must report a
# verified WCDS.  Then route and broadcast on the connected deployment, and
# check that node IDs at or past n, including values that would wrap to a
# valid 32-bit ID, are rejected, as are malformed numbers (a sign, trailing
# characters, non-finite values), empty runs and over-ceiling thread counts.
#
#   cmake -DWCDS=path/to/wcds -DWORK=work/dir -P cli_selftest.cmake
if(NOT WCDS OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DWCDS=<wcds binary> -DWORK=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(MAKE_DIRECTORY "${WORK}")

function(run_wcds out_var)
  execute_process(COMMAND "${WCDS}" ${ARGN}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "wcds ${ARGN} exited ${code}:\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Runs wcds and expects it to exit 1 (a rejected argument, not a crash);
# stores stderr in out_var.
function(run_wcds_fails out_var)
  execute_process(COMMAND "${WCDS}" ${ARGN}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "wcds ${ARGN} exited ${code}, expected 1:\n${out}${err}")
  endif()
  set(${out_var} "${err}" PARENT_SCOPE)
endfunction()

function(expect_verified points)
  foreach(algorithm 1 2)
    foreach(mode ${ARGN})
      run_wcds(out backbone --points "${points}" --algorithm ${algorithm}
               --mode ${mode} --threads 1)
      if(NOT out MATCHES "verified WCDS[^\n:]*: true\n")
        message(FATAL_ERROR
                "algorithm ${algorithm} (${mode}) on ${points} did not "
                "verify:\n${out}")
      endif()
      message(STATUS "algorithm ${algorithm} (${mode}) on ${points}: ok")
    endforeach()
  endforeach()
endfunction()

set(connected "${WORK}/connected.txt")
run_wcds(out generate --n 150 --degree 10 --seed 3 --out "${connected}")
expect_verified("${connected}" central protocol)

# Two 4-node paths (spacing 0.5, unit radius) 50 apart: two components.
set(two_clusters "${WORK}/two_clusters.txt")
file(WRITE "${two_clusters}" "wcds-points v1\n8\n"
     "0 0\n0.5 0\n1 0\n1.5 0\n"
     "50 0\n50.5 0\n51 0\n51.5 0\n")
expect_verified("${two_clusters}" protocol)

run_wcds(out route --points "${connected}" --src 0 --dst 5)
if(NOT out MATCHES "^route \\(")
  message(FATAL_ERROR "route 0 -> 5 printed no route:\n${out}")
endif()
foreach(src 150 4294967297)
  run_wcds_fails(err route --points "${connected}" --src ${src} --dst 5)
  if(NOT err MATCHES "out of range")
    message(FATAL_ERROR "route --src ${src} was not rejected as out of range:\n${err}")
  endif()
endforeach()
run_wcds_fails(err broadcast --points "${connected}" --source 4294967296)
if(NOT err MATCHES "out of range")
  message(FATAL_ERROR "broadcast --source 4294967296 was not rejected as out of range:\n${err}")
endif()
run_wcds_fails(err generate --n 4294967297 --out "${WORK}/wrapped.txt")
if(NOT err MATCHES "exceeds")
  message(FATAL_ERROR "generate --n 4294967297 was not rejected:\n${err}")
endif()
message(STATUS "route and node-ID range checks: ok")

# Each flag value must parse whole; each case exits 1 and names its flag.
function(expect_rejected flag)
  run_wcds_fails(err ${ARGN})
  if(NOT err MATCHES "--${flag}")
    message(FATAL_ERROR "wcds ${ARGN} was not rejected for --${flag}:\n${err}")
  endif()
endfunction()
foreach(n 12abc 0 -1 18446744073709551616)
  expect_rejected(n generate --n "${n}" --out "${WORK}/rejected.txt")
endforeach()
foreach(degree nan inf -12 12x 1e400)
  expect_rejected(degree generate --n 20 --degree "${degree}"
                  --out "${WORK}/rejected.txt")
endforeach()
if(EXISTS "${WORK}/rejected.txt")
  message(FATAL_ERROR "a rejected generate still wrote a deployment")
endif()
expect_rejected(events maintain --points "${connected}" --events 0)
foreach(threads 257 -1 18446744073709551615)
  expect_rejected(threads backbone --points "${connected}" --mode protocol
                  --threads ${threads})
endforeach()
message(STATUS "strict number parsing: ok")

run_wcds(out broadcast --points "${connected}" --source 7)
if(NOT out MATCHES "blind flood:[^\n]*reached 150/150\nbackbone flood:[^\n]*reached 150/150\n")
  message(FATAL_ERROR "broadcast did not reach every node:\n${out}")
endif()
message(STATUS "broadcast: ok")
