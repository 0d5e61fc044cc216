# Checks that a tile-kernel object built for a wider instruction set than
# the baseline defines nothing a baseline caller could link to:
#   - no weak symbol: an inline function or template instantiated in the
#     object, which the linker may keep in place of the baseline copy;
#   - no global symbol outside the copy's namespace;
#   - no static initializer, which would run at load time on every CPU.
# Any of these lets wide instructions run on a CPU that dispatch never
# chose the wide copy for (src/fft/batch_tile.hpp).  Sanitizer builds add a
# module constructor (_sub_I_00099_*) to every object; it only calls into
# the sanitizer runtime and is not a source-level initializer.
#
#   cmake -DNM=<nm> -DOBJECT=<batch_tile.cpp.o> \
#         -DNAMESPACE=fx::fft::tile_avx512 -P check_tile_symbols.cmake
foreach(var NM OBJECT NAMESPACE)
  if(NOT ${var})
    message(FATAL_ERROR "check_tile_symbols: pass -D${var}=...")
  endif()
endforeach()

execute_process(COMMAND ${NM} -C --defined-only ${OBJECT}
                OUTPUT_VARIABLE listing ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${OBJECT}: ${errors}")
endif()

string(REPLACE "\n" ";" lines "${listing}")
set(violations "")
set(entry_points 0)
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^[0-9a-fA-F]+ ([A-Za-z]) (.+)$")
    continue()
  endif()
  set(type "${CMAKE_MATCH_1}")
  set(name "${CMAKE_MATCH_2}")
  if(type MATCHES "^[WV]$")
    list(APPEND violations "weak symbol (${type}): ${name}")
  elseif(type MATCHES "^[A-Zu]$")
    if(name MATCHES "^${NAMESPACE}::")
      math(EXPR entry_points "${entry_points} + 1")
    else()
      list(APPEND violations "global symbol outside ${NAMESPACE} (${type}): ${name}")
    endif()
  endif()
  if(name MATCHES "^_GLOBAL__sub_I")
    list(APPEND violations "static initializer: ${name}")
  endif()
endforeach()

if(entry_points EQUAL 0)
  list(APPEND violations "no global symbol in ${NAMESPACE}: wrong object?")
endif()
if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "${OBJECT}:\n  ${report}")
endif()
message(STATUS "${OBJECT}: ${entry_points} global symbol(s), all in ${NAMESPACE}")
