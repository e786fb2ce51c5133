# End-to-end check of the `wcds` CLI: generate a deployment, build its
# backbone with both algorithms in both modes, and build a two-cluster
# (disconnected) deployment in protocol mode.  Every build must report a
# verified WCDS.
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
